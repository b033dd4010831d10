package main

import (
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"repro/internal/fm"
	"repro/internal/fm/search"
	"repro/internal/geom"
	"repro/internal/serve"
)

func testGraph(m, n int, deps [][]int, width int) *graphDef {
	return newGraphDef(serve.RecurrenceSpec{Name: "t", Dims: []int{m, n}, Deps: deps}, serve.TargetSpec{Width: width})
}

func TestClosedFormsAcceptEvaluate(t *testing.T) {
	editDist := [][]int{{1, 0}, {0, 1}, {1, 1}}
	cases := []struct {
		m, n, p int
		extra   int64 // added to the minimum stride
		deps    [][]int
	}{
		{6, 6, 1, 0, editDist},
		{6, 6, 2, 0, editDist},
		{8, 8, 3, 5, editDist},
		{9, 7, 7, 0, [][]int{{1, 0}}},
		{5, 12, 8, 2, [][]int{{1, 0}, {0, 1}}},
		{24, 24, 16, 1000, [][]int{{1, 0}, {1, 1}}},
		{31, 40, 12, 3, editDist},
	}
	for _, c := range cases {
		gd := testGraph(c.m, c.n, c.deps, 16)
		stride := minStride(gd, c.p) + c.extra
		for _, ss := range []serve.ScheduleSpec{
			{Kind: "antidiagonal", P: c.p, Stride: stride},
			{Kind: "antidiagonal", P: c.p},
			{Kind: "serial"},
		} {
			sched, err := buildSchedule(ss, gd.g, gd.dom, gd.ftgt)
			if err != nil {
				t.Fatal(err)
			}
			cost, err := fm.Evaluate(gd.g, sched, gd.ftgt, fm.EvalOptions{})
			if err != nil {
				t.Fatalf("%+v %+v: %v", c, ss, err)
			}
			if err := closedForm(gd, ss, cost); err != nil {
				t.Errorf("m=%d n=%d p=%d stride=%d %s: %v", c.m, c.n, c.p, ss.Stride, ss.Kind, err)
			}
			if err := consistent(gd.ftgt, cost); err != nil {
				t.Errorf("%+v: %v", c, err)
			}
		}
	}
}

// evalFixture is one eval request over every schedule kind with its
// correct answer.
func evalFixture(t *testing.T) (*request, serve.EvalResponse) {
	t.Helper()
	corpus := hotCorpus(7)
	req := corpus[len(corpus)-1]
	for _, r := range corpus {
		if len(r.eval.Schedules) == 4 {
			req = r
			break
		}
	}
	gd := newGraphDef(req.rec, req.eval.Target)
	resp := serve.EvalResponse{GraphFP: gd.fp, BatchSize: 1}
	for _, ss := range req.eval.Schedules {
		sched, err := buildSchedule(ss, gd.g, gd.dom, gd.ftgt)
		if err != nil {
			t.Fatal(err)
		}
		cost, err := fm.Evaluate(gd.g, sched, gd.ftgt, fm.EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		resp.Costs = append(resp.Costs, cost)
	}
	return req, resp
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestEvalFailuresAreCounted(t *testing.T) {
	req, good := evalFixture(t)
	ck := newChecker()
	perturbed := func(f func(c *fm.Cost)) serve.EvalResponse {
		r := good
		r.Costs = append([]fm.Cost(nil), good.Costs...)
		f(&r.Costs[len(r.Costs)-1])
		return r
	}
	degraded := good
	degraded.Degraded = true
	cases := []struct {
		name          string
		status        int
		body          []byte
		failed, wrong bool
	}{
		{name: "correct", status: http.StatusOK, body: mustJSON(t, good)},
		{name: "cycles+1", status: http.StatusOK, body: mustJSON(t, perturbed(func(c *fm.Cost) { c.Cycles++ })), failed: true, wrong: true},
		{name: "energy one ulp up", status: http.StatusOK, body: mustJSON(t, perturbed(func(c *fm.Cost) {
			c.WireEnergy = math.Nextafter(c.WireEnergy, math.Inf(1))
		})), failed: true, wrong: true},
		{name: "messages+1", status: http.StatusOK, body: mustJSON(t, perturbed(func(c *fm.Cost) { c.Messages++ })), failed: true, wrong: true},
		{name: "degraded", status: http.StatusOK, body: mustJSON(t, degraded), failed: true},
		{name: "non-200", status: http.StatusTooManyRequests, body: []byte(`{"error":"eval queue full; retry later"}`), failed: true},
		{name: "transport error", status: 0, body: []byte("connection reset"), failed: true},
	}
	for _, c := range cases {
		var tl tally
		tl.add(ck.check(req, c.status, c.body, false))
		if got := tl.failed == 1; got != c.failed {
			t.Errorf("%s: failed=%d, want failed=%v (%v)", c.name, tl.failed, c.failed, tl.firstErr)
		}
		if got := tl.wrong == 1; got != c.wrong {
			t.Errorf("%s: wrong=%d, want wrong=%v (%v)", c.name, tl.wrong, c.wrong, tl.firstErr)
		}
	}
}

func TestSearchFailuresAreCounted(t *testing.T) {
	req := searchStream(3, 0)()
	ck := newChecker()
	gd := ck.graph(req.rec, req.search.Target)
	_, cost, err := search.AnnealResumable(gd.g, gd.ftgt, searchOptions(req.search))
	if err != nil {
		t.Fatal(err)
	}
	obj := objectiveOf(req.search.Objective)
	good := serve.SearchResponse{
		GraphFP:    gd.fp,
		Best:       serve.SearchBest{Objective: obj.Value(cost), Cost: cost, PlacesUsed: cost.PlacesUsed},
		DoneIters:  searchIters,
		TotalIters: searchIters,
	}
	with := func(f func(r *serve.SearchResponse)) []byte {
		r := good
		f(&r)
		return mustJSON(t, r)
	}
	// A start mapping the anneal must not lose to: the list schedule's
	// placements, ASAP-timed.
	list := fm.ListSchedule(gd.g, gd.ftgt)
	place := make([]geom.Point, len(list))
	for i, a := range list {
		place[i] = a.Place
	}
	start, err := fm.Evaluate(gd.g, search.ASAP(gd.g, place, gd.ftgt), gd.ftgt, fm.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name          string
		status        int
		body          []byte
		failed, wrong bool
	}{
		{name: "correct", status: http.StatusOK, body: mustJSON(t, good)},
		{name: "partial", status: http.StatusOK, body: with(func(r *serve.SearchResponse) { r.Partial = true }), failed: true},
		{name: "unfinished", status: http.StatusOK, body: with(func(r *serve.SearchResponse) { r.DoneIters = 1999 }), failed: true},
		{name: "degraded", status: http.StatusOK, body: with(func(r *serve.SearchResponse) { r.Degraded = true }), failed: true},
		{name: "non-200", status: http.StatusTooManyRequests, body: []byte(`{"error":"all 2 search slots busy"}`), failed: true},
		{name: "cost differs from re-run", status: http.StatusOK, body: with(func(r *serve.SearchResponse) {
			r.Best.Cost.BitHops++
		}), failed: true, wrong: true},
		{name: "worse than start", status: http.StatusOK, body: with(func(r *serve.SearchResponse) {
			r.Best = serve.SearchBest{Objective: obj.Value(start) * 2, Cost: start, PlacesUsed: start.PlacesUsed}
			r.Best.Cost.Cycles *= 2
			r.Best.Cost.TimePS *= 2
			r.Best.Cost.EnergyFJ, r.Best.Cost.ComputeEnergy = 2*start.EnergyFJ, start.ComputeEnergy+start.EnergyFJ
			r.Best.Objective = obj.Value(r.Best.Cost)
		}), failed: true, wrong: true},
	}
	for _, c := range cases {
		var tl tally
		tl.add(ck.check(req, c.status, c.body, true))
		if got := tl.failed == 1; got != c.failed {
			t.Errorf("%s: failed=%d, want failed=%v (%v)", c.name, tl.failed, c.failed, tl.firstErr)
		}
		if got := tl.wrong == 1; got != c.wrong {
			t.Errorf("%s: wrong=%d, want wrong=%v (%v)", c.name, tl.wrong, c.wrong, tl.firstErr)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
