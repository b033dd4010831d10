package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"sync"

	"repro/internal/fm"
	"repro/internal/fm/search"
	"repro/internal/geom"
	"repro/internal/serve"
)

// relTol bounds the float disagreement allowed between an energy total
// and the sum of its parts, and between an accumulated energy and its
// closed form: summation order alone moves them by ~n·2^-52.
const relTol = 1e-9

// Search defaults of the server, which the workload's requests leave to
// it; the checker re-runs searches with them spelled out.
const (
	searchIters  = 2000
	searchChains = 2
)

// refusal marks an operation the server did not complete: a non-200, a
// degraded, partial or unfinished answer. It fails the operation but
// says nothing about the numbers the server returns when it does answer.
type refusal struct{ msg string }

func (r *refusal) Error() string { return r.msg }

func refused(format string, args ...any) error {
	return &refusal{fmt.Sprintf(format, args...)}
}

// tally counts one kind of operation: attempted, failed, and the subset
// of failures that were wrong answers rather than refusals.
type tally struct {
	attempted, failed, wrong int
	firstErr                 error
}

func (t *tally) add(err error) { t.addN(err, 1) }

// addN counts n operations that share one verdict (identical answers to
// identical requests).
func (t *tally) addN(err error, n int) {
	t.attempted += n
	if err == nil {
		return
	}
	t.failed += n
	var r *refusal
	if !errors.As(err, &r) {
		t.wrong += n
	}
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// checker prices answers apart from the serving stack. It memoizes the
// graphs it materializes and the search start mappings it prices; it is
// safe for concurrent use.
type checker struct {
	mu     sync.Mutex
	graphs map[string]*graphDef
	starts map[string]fm.Cost
}

func newChecker() *checker {
	return &checker{graphs: map[string]*graphDef{}, starts: map[string]fm.Cost{}}
}

func (c *checker) graph(rec serve.RecurrenceSpec, ts serve.TargetSpec) *graphDef {
	key := fmt.Sprintf("%+v|%+v", rec, ts)
	c.mu.Lock()
	defer c.mu.Unlock()
	gd, ok := c.graphs[key]
	if !ok {
		gd = newGraphDef(rec, ts)
		c.graphs[key] = gd
	}
	return gd
}

// check verifies one recorded answer to req; with rerun, a search is
// re-run with search.AnnealResumable.
func (c *checker) check(req *request, status int, body []byte, rerun bool) error {
	if req.eval != nil {
		return c.checkEval(req.eval, req.rec, status, body, nil)
	}
	var again func() (fm.Cost, error)
	if rerun {
		again = func() (fm.Cost, error) {
			gd := c.graph(req.rec, req.search.Target)
			_, cost, err := search.AnnealResumable(gd.g, gd.ftgt, searchOptions(req.search))
			return cost, err
		}
	}
	return c.checkSearch(req.search, req.rec, status, body, again)
}

// checkEval requires every served cost to match, bit for bit, the
// schedule rebuilt from the request and priced by fm.Evaluate with the
// legality check on and no cache — want[i] when the caller priced it
// already, else priced here — then applies the closed forms and the
// consistency checks.
func (c *checker) checkEval(req *serve.EvalRequest, rec serve.RecurrenceSpec, status int, body []byte, want []fm.Cost) error {
	if status != http.StatusOK {
		return refused("eval: status %d: %.200s", status, body)
	}
	var resp serve.EvalResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("eval: decode answer: %w", err)
	}
	if resp.Degraded {
		return refused("eval: degraded answer")
	}
	gd := c.graph(rec, req.Target)
	if resp.GraphFP != gd.fp {
		return fmt.Errorf("eval: graph_fp %s, graph fingerprints to %s", resp.GraphFP, gd.fp)
	}
	if len(resp.Costs) != len(req.Schedules) {
		return fmt.Errorf("eval: %d costs for %d schedules", len(resp.Costs), len(req.Schedules))
	}
	for i, ss := range req.Schedules {
		var ref fm.Cost
		if want != nil {
			ref = want[i]
		} else {
			sched, err := buildSchedule(ss, gd.g, gd.dom, gd.ftgt)
			if err != nil {
				return fmt.Errorf("eval: schedule %d: %w", i, err)
			}
			if ref, err = fm.Evaluate(gd.g, sched, gd.ftgt, fm.EvalOptions{}); err != nil {
				return fmt.Errorf("eval: schedule %d is illegal but was priced: %w", i, err)
			}
		}
		got := resp.Costs[i]
		if d := costDiff(got, ref); d != "" {
			return fmt.Errorf("eval: schedule %d (%s): served cost differs from fm.Evaluate: %s", i, ss.Kind, d)
		}
		if err := closedForm(gd, ss, got); err != nil {
			return fmt.Errorf("eval: schedule %d (%s): %w", i, ss.Kind, err)
		}
		if err := consistent(gd.ftgt, got); err != nil {
			return fmt.Errorf("eval: schedule %d: %w", i, err)
		}
	}
	return nil
}

// costDiff names the first field in which two costs differ bit for bit.
func costDiff(got, want fm.Cost) string {
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		g, w := gv.Field(i), wv.Field(i)
		same := false
		switch g.Kind() {
		case reflect.Float64:
			same = math.Float64bits(g.Float()) == math.Float64bits(w.Float())
		default:
			same = g.Interface() == w.Interface()
		}
		if !same {
			return fmt.Sprintf("%s = %v, want %v", gv.Type().Field(i).Name, g.Interface(), w.Interface())
		}
	}
	return ""
}

func relClose(got, want float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(math.Abs(want), 1)
}

// consistent checks the cost's internal identities: the energy total is
// the sum of its parts and the time is the makespan in picoseconds.
func consistent(tgt fm.Target, c fm.Cost) error {
	if sum := c.ComputeEnergy + c.WireEnergy + c.OffChipEnergy; !relClose(c.EnergyFJ, sum) {
		return fmt.Errorf("EnergyFJ %v is not compute+wire+offchip = %v", c.EnergyFJ, sum)
	}
	if want := float64(c.Cycles) * tgt.CyclePS; !relClose(c.TimePS, want) {
		return fmt.Errorf("TimePS %v is not Cycles·CyclePS = %v", c.TimePS, want)
	}
	return nil
}

// closedForm checks what the method fixes for serial and anti-diagonal
// mappings of an m×n recurrence whose dependences include (1,0), from
// (dims, p, stride) and the target's per-op constants alone:
//
//	Ops = m·n, ComputeEnergy = m·n·OpEnergy
//	serial:        no BitHops, Messages or WireEnergy; one place
//	anti-diagonal: PlacesUsed = min(p, m); for n ≥ p,
//	               Cycles = (⌊(m−1)/p⌋·n + n−1 + (m−1) mod p)·stride + OpCycles;
//	               for p > 1, Messages = (m−1)·n, and each row step
//	               r → r+1 moves n values 1 hop, or p−1 hops where row r
//	               sits on the last processor and row r+1 wraps to the first.
func closedForm(gd *graphDef, ss serve.ScheduleSpec, c fm.Cost) error {
	m, n := gd.rec.Dims[0], gd.rec.Dims[1]
	out := gd.g.Outputs()[0]
	op, bits := gd.g.Op(out), gd.g.Bits(out)
	tgt := gd.ftgt
	if c.Ops != m*n {
		return fmt.Errorf("Ops %d, closed form %d", c.Ops, m*n)
	}
	if want := float64(m*n) * tgt.Tech.OpEnergy(op, bits); !relClose(c.ComputeEnergy, want) {
		return fmt.Errorf("ComputeEnergy %v, closed form %v", c.ComputeEnergy, want)
	}
	switch ss.Kind {
	case "serial":
		if c.BitHops != 0 || c.Messages != 0 || c.WireEnergy != 0 || c.PlacesUsed != 1 {
			return fmt.Errorf("serial mapping moved data: %d bit-hops, %d messages, %v fJ wire, %d places",
				c.BitHops, c.Messages, c.WireEnergy, c.PlacesUsed)
		}
	case "antidiagonal":
		p := specP(ss, tgt)
		stride, err := antiDiagonalStride(ss, gd.g, gd.dom, tgt)
		if err != nil {
			return err
		}
		if c.PlacesUsed != min(p, m) {
			return fmt.Errorf("PlacesUsed %d, closed form %d", c.PlacesUsed, min(p, m))
		}
		if n >= p {
			steps := int64((m-1)/p*n + n - 1 + (m-1)%p)
			if want := steps*stride + tgt.OpCycles(op, bits); c.Cycles != want {
				return fmt.Errorf("Cycles %d, closed form %d", c.Cycles, want)
			}
		}
		var msgs, bitHops int64
		var wire float64
		if p > 1 {
			for r := 0; r < m-1; r++ {
				hops := 1
				if r%p == p-1 {
					hops = p - 1
				}
				msgs += int64(n)
				bitHops += int64(n * bits * hops)
				wire += float64(n) * tgt.WireEnergy(bits, hops)
			}
		}
		if c.Messages != msgs || c.BitHops != bitHops || !relClose(c.WireEnergy, wire) {
			return fmt.Errorf("communication (%d messages, %d bit-hops, %v fJ), closed form (%d, %d, %v)",
				c.Messages, c.BitHops, c.WireEnergy, msgs, bitHops, wire)
		}
	}
	return nil
}

// searchOptions are the anneal options the server derives from a
// workload search request.
func searchOptions(req *serve.SearchRequest) search.AnnealOptions {
	return search.AnnealOptions{
		Iters:     searchIters,
		Chains:    searchChains,
		Seed:      req.Seed,
		Objective: objectiveOf(req.Objective),
	}
}

func objectiveOf(name string) search.Objective {
	switch name {
	case "energy":
		return search.MinEnergy
	case "edp":
		return search.MinEDP
	case "footprint":
		return search.MinFootprint
	}
	return search.MinTime
}

// startCost prices the annealer's starting mapping — ASAP times over the
// default list schedule's placements — with the legality check on.
func (c *checker) startCost(gd *graphDef) (fm.Cost, error) {
	c.mu.Lock()
	cost, ok := c.starts[gd.fp]
	c.mu.Unlock()
	if ok {
		return cost, nil
	}
	list := fm.ListSchedule(gd.g, gd.ftgt)
	place := make([]geom.Point, len(list))
	for i, a := range list {
		place[i] = a.Place
	}
	cost, err := fm.Evaluate(gd.g, search.ASAP(gd.g, place, gd.ftgt), gd.ftgt, fm.EvalOptions{})
	if err != nil {
		return fm.Cost{}, err
	}
	c.mu.Lock()
	c.starts[gd.fp] = cost
	c.mu.Unlock()
	return cost, nil
}

// checkSearch requires a complete answer whose objective is no worse
// than the annealer's starting mapping and whose cost is consistent.
// With again, the cost of the same search re-run with
// search.AnnealResumable, it also requires the same cost bit for bit,
// or, for an answer taken from the atlas, one no worse.
func (c *checker) checkSearch(req *serve.SearchRequest, rec serve.RecurrenceSpec, status int, body []byte, again func() (fm.Cost, error)) error {
	if status != http.StatusOK {
		return refused("search: status %d: %.200s", status, body)
	}
	var resp serve.SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("search: decode answer: %w", err)
	}
	switch {
	case resp.Degraded:
		return refused("search: degraded answer")
	case resp.Partial:
		return refused("search: partial answer")
	case resp.DoneIters != resp.TotalIters:
		return refused("search: %d of %d iterations done", resp.DoneIters, resp.TotalIters)
	case resp.TotalIters != searchIters:
		return fmt.Errorf("search: total_iters %d, server default is %d", resp.TotalIters, searchIters)
	}
	gd := c.graph(rec, req.Target)
	if resp.GraphFP != gd.fp {
		return fmt.Errorf("search: graph_fp %s, graph fingerprints to %s", resp.GraphFP, gd.fp)
	}
	obj := objectiveOf(req.Objective)
	cost := resp.Best.Cost
	if math.Float64bits(resp.Best.Objective) != math.Float64bits(obj.Value(cost)) || resp.Best.PlacesUsed != cost.PlacesUsed {
		return fmt.Errorf("search: best summary (%v, %d places) disagrees with its cost", resp.Best.Objective, resp.Best.PlacesUsed)
	}
	if m, n := rec.Dims[0], rec.Dims[1]; cost.Ops != m*n {
		return fmt.Errorf("search: Ops %d for %d cells", cost.Ops, m*n)
	}
	if err := consistent(gd.ftgt, cost); err != nil {
		return fmt.Errorf("search: %w", err)
	}
	start, err := c.startCost(gd)
	if err != nil {
		return fmt.Errorf("search: starting mapping: %w", err)
	}
	if resp.Best.Objective > obj.Value(start) {
		return fmt.Errorf("search: objective %v is worse than the starting mapping's %v", resp.Best.Objective, obj.Value(start))
	}
	if again == nil {
		return nil
	}
	rerun, err := again()
	if err != nil {
		return fmt.Errorf("search: re-run: %w", err)
	}
	if resp.FromStore {
		if resp.Best.Objective > obj.Value(rerun) {
			return fmt.Errorf("search: stored best %v is worse than the re-run's %v", resp.Best.Objective, obj.Value(rerun))
		}
		return nil
	}
	if d := costDiff(cost, rerun); d != "" {
		return fmt.Errorf("search: re-run with search.AnnealResumable differs: %s", d)
	}
	return nil
}
