package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// perLayer lists the per-layer metrics a traced run reports, in
// BENCHMARK.json's order, with their units.
var perLayer = []struct{ name, unit string }{
	{"serve.handler_ms", "ms"},
	{"serve.other_ms", "ms"},
	{"serve.batch_jobs_mean", "jobs"},
	{"serve.queue_wait_ms", "ms"},
	{"http.loopback_ms", "ms"},
	{"json.decode_ms", "ms"},
	{"json.encode_ms", "ms"},
	{"fm.materialize_ms", "ms"},
	{"fm.graph_fp_us", "us"},
	{"fm.sched_build_ms", "ms"},
	{"fm.sched_fp_us", "us"},
	{"fm.evaluate_ms", "ms"},
	{"fm.evaluate_ns_per_cell", "ns"},
	{"fm.delta_propose_us", "us"},
	{"search.cache_probe_us", "us"},
	{"search.cache_hit_ratio", "ratio"},
	{"search.evalbatch_ms", "ms"},
	{"search.anneal_ms", "ms"},
	{"search.moves_per_s", "moves/s"},
	{"store.open_s", "s"},
	{"store.open_us_per_record", "us"},
	{"store.lookup_us", "us"},
	{"store.put_ms", "ms"},
	{"store.bytes_per_record", "B"},
	{"workspan.tasks_per_req", "count"},
	{"workspan.steals_per_req", "count"},
	{"tracing.overhead_ms", "ms"},
	{"gc.cpu_share", "ratio"},
}

// spanIndex groups span durations (ns) and work by name.
type spanIndex struct {
	dur   map[string][]float64
	work  map[string]float64
	byReq map[int][]span
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{dur: map[string][]float64{}, work: map[string]float64{}, byReq: map[int][]span{}}
	for _, s := range spans {
		ix.dur[s.Name] = append(ix.dur[s.Name], s.ns())
		ix.work[s.Name] += float64(s.Work)
		if s.Req > 0 {
			ix.byReq[s.Req] = append(ix.byReq[s.Req], s)
		}
	}
	return ix
}

func (ix spanIndex) median(name string) (float64, bool) {
	d := ix.dur[name]
	return median(d), len(d) > 0
}

func (ix spanIndex) total(name string) float64 {
	var t float64
	for _, d := range ix.dur[name] {
		t += d
	}
	return t
}

// stepTotals returns, per request that reached the handler, the time of
// each handler step and of the handler itself; search requests are told
// from eval requests by their anneal span.
func (ix spanIndex) stepTotals() (steps []map[string]float64, handler []float64) {
	ids := make([]int, 0, len(ix.byReq))
	for id := range ix.byReq {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		m := map[string]float64{}
		for _, s := range ix.byReq[id] {
			m[s.Name] += s.ns()
		}
		h, ok := m["serve.handler"]
		if !ok {
			continue
		}
		names := evalSteps
		if _, isSearch := m["search.anneal"]; isSearch {
			names = searchSteps
		}
		st := map[string]float64{}
		for _, n := range names {
			st[n] = m[n]
		}
		steps = append(steps, st)
		handler = append(handler, h)
	}
	return steps, handler
}

// residual is serve.other_ms: the median over requests of the handler's
// time minus its timed steps.
func residual(steps []map[string]float64, handler []float64) float64 {
	res := make([]float64, len(handler))
	for i, h := range handler {
		res[i] = h
		for _, v := range steps[i] {
			res[i] -= v
		}
	}
	return median(res)
}

// spanLayers derives the span-based per-layer metrics a replay produced.
func spanLayers(ix spanIndex) map[string]float64 {
	out := map[string]float64{}
	scaled := map[string]struct {
		span  string
		scale float64
	}{
		"serve.handler_ms":      {"serve.handler", 1e6},
		"json.decode_ms":        {"json.decode", 1e6},
		"json.encode_ms":        {"json.encode", 1e6},
		"fm.materialize_ms":     {"fm.materialize", 1e6},
		"fm.graph_fp_us":        {"fm.graph_fp", 1e3},
		"fm.sched_build_ms":     {"fm.sched_build", 1e6},
		"fm.sched_fp_us":        {"fm.sched_fp", 1e3},
		"fm.evaluate_ms":        {"fm.evaluate", 1e6},
		"fm.delta_propose_us":   {"fm.delta_propose", 1e3},
		"search.cache_probe_us": {"search.cache_probe", 1e3},
		"search.evalbatch_ms":   {"search.evalbatch", 1e6},
		"search.anneal_ms":      {"search.anneal", 1e6},
		"store.open_s":          {"store.open", 1e9},
		"store.lookup_us":       {"store.lookup", 1e3},
		"store.put_ms":          {"store.put", 1e6},
	}
	for name, sp := range scaled {
		if v, ok := ix.median(sp.span); ok {
			out[name] = v / sp.scale
		}
	}
	if w := ix.work["fm.evaluate"]; w > 0 {
		out["fm.evaluate_ns_per_cell"] = ix.total("fm.evaluate") / w
	}
	if t := ix.total("search.anneal"); t > 0 {
		out["search.moves_per_s"] = ix.work["search.anneal"] / (t / 1e9)
	}
	if v, ok := out["store.open_s"]; ok {
		out["store.open_us_per_record"] = v / atlasRecords * 1e6
	}
	h, okH := ix.median("serve.handler")
	u, okU := ix.median("serve.handler.untraced")
	if okH && okU {
		out["tracing.overhead_ms"] = (h - u) / 1e6
	}
	if steps, handler := ix.stepTotals(); len(handler) > 0 {
		out["serve.other_ms"] = residual(steps, handler) / 1e6
	}
	return out
}

// registryLayers derives the per-layer counts from two snapshots of a
// server's obs registry taken around reqs requests.
func registryLayers(s0, s1 obs.Snapshot, reqs int) map[string]float64 {
	out := map[string]float64{}
	b0, b1 := s0.Histograms["serve.eval.batch_jobs"], s1.Histograms["serve.eval.batch_jobs"]
	if n := b1.Count - b0.Count; n > 0 {
		out["serve.batch_jobs_mean"] = (b1.Sum - b0.Sum) / float64(n)
	}
	if q0, q1 := s0.Timers["serve.eval.queue_wait_seconds"], s1.Timers["serve.eval.queue_wait_seconds"]; q1.Count > q0.Count {
		out["serve.queue_wait_ms"] = q1.P50 * 1e3
	}
	hits := s1.Gauges["search.evalcache.hits"] - s0.Gauges["search.evalcache.hits"]
	misses := s1.Gauges["search.evalcache.misses"] - s0.Gauges["search.evalcache.misses"]
	if hits+misses > 0 {
		out["search.cache_hit_ratio"] = hits / (hits + misses)
	}
	if reqs > 0 {
		out["workspan.tasks_per_req"] = float64(s1.Counters["workspan.tasks"]-s0.Counters["workspan.tasks"]) / float64(reqs)
		out["workspan.steals_per_req"] = float64(s1.Counters["workspan.steals"]-s0.Counters["workspan.steals"]) / float64(reqs)
	}
	return out
}

// replayResult is one in-process replay's spans and derived layers.
type replayResult struct {
	spans  []span
	layers map[string]float64
	checks tally
	reqs   int
}

// replay runs one workload's stream through a fresh replayer over
// copies of the pristine atlas.
func replay(workload string, seed int64, budget time.Duration, maxReqs int, pristine, dir string, ck *checker) (replayResult, error) {
	rec := &recorder{t0: time.Now()}
	rp, err := newReplayer(rec, ck, pristine, dir)
	if err != nil {
		return replayResult{}, err
	}
	if err := rp.run(workload, seed, budget, maxReqs); err != nil {
		rp.close()
		return replayResult{}, err
	}
	snap1, err := rp.a.metrics()
	if err != nil {
		rp.close()
		return replayResult{}, err
	}
	if err := rp.close(); err != nil {
		return replayResult{}, err
	}
	ix := indexSpans(rec.spans)
	layers := spanLayers(ix)
	for k, v := range registryLayers(rp.snap0, snap1, rp.reqs) {
		layers[k] = v
	}
	return replayResult{spans: rec.spans, layers: layers, checks: rp.checks, reqs: rp.reqs}, nil
}

// reconcile prints eval-hot's reconciliation line: the medians of the
// handler's timed steps, their sum, serve.handler_ms, and the residual
// serve.other_ms, flagged when it is below zero by more than
// reconcileTol of the handler median — a step counted twice.
func reconcile(ix spanIndex) {
	const reconcileTol = 0.05
	steps, handler := ix.stepTotals()
	if len(handler) == 0 {
		return
	}
	var parts []string
	var sum float64
	for _, name := range evalSteps {
		col := make([]float64, len(steps))
		for i, st := range steps {
			col[i] = st[name]
		}
		m := median(col) / 1e6
		sum += m
		parts = append(parts, fmt.Sprintf("%s %.4f", name, m))
	}
	h := median(handler) / 1e6
	other := residual(steps, handler) / 1e6
	verdict := "ok"
	if other < -reconcileTol*h {
		verdict = "NEGATIVE: a step is counted twice"
	}
	fmt.Printf("reconcile eval-hot (ms, medians over %d requests): %s; sum %.4f; serve.handler_ms %.4f; "+
		"handler minus sum %.4f; serve.other_ms (median per-request residual) %.4f; tolerance -%.0f%% of handler: %s\n",
		len(handler), strings.Join(parts, " + "), sum, h, h-sum, other, reconcileTol*100, verdict)
}

// runTraced is the traced run: the same set-up and untraced loopback
// window as a plain run (for the registry counts and the loopback p50),
// then an in-process replay of the same seeded stream that times every
// layer call. Metrics a workload's stream never reaches are measured on
// a short replay of the workload that reaches them, and the run says so.
func runTraced(o options) (result, error) {
	res := result{Metrics: map[string]metric{}}
	dir, err := workDir(o)
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	rs := newRunState(o)
	atlas, pristine := filepath.Join(dir, "atlas"), filepath.Join(dir, "pristine")
	if err := rs.buildAtlas(atlas); err != nil {
		return res, err
	}
	if err := copyDir(atlas, pristine); err != nil {
		return res, err
	}

	in, _, err := rs.setUp(atlas)
	if err != nil {
		return res, err
	}
	snap0, err := in.metrics()
	if err != nil {
		in.stop()
		return res, err
	}
	w := rs.window(in)
	snap1, err := in.metrics()
	if err != nil {
		in.stop()
		return res, err
	}
	if err := in.stop(); err != nil {
		return res, err
	}
	windowLayers := registryLayers(snap0, snap1, w.completed())
	windowLayers["gc.cpu_share"] = gcShare(w.before, w.after)
	if recs := snap1.Gauges["store.records"]; recs > 0 {
		windowLayers["store.bytes_per_record"] = float64(dirBytes(atlas)) / recs
	}
	loopP50 := percentile(w.lat, 50)

	primary, err := replay(o.workload, o.seed, time.Duration(o.seconds)*time.Second, 20000, pristine, filepath.Join(dir, "replay"), rs.ck)
	if err != nil {
		return res, err
	}
	rs.tally("replay").merge(primary.checks)
	ix := indexSpans(primary.spans)
	layers := primary.layers
	for k, v := range windowLayers {
		layers[k] = v
	}
	if h, ok := layers["serve.handler_ms"]; ok {
		layers["http.loopback_ms"] = loopP50 - h
	}
	spanFile := filepath.Join(o.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := writeSpans(spanFile, primary.spans); err != nil {
		return res, err
	}

	fallback := wSearch
	if o.workload == wSearch {
		fallback = wHot
	}
	var borrowed []string
	for _, l := range perLayer {
		if _, ok := layers[l.name]; !ok {
			borrowed = append(borrowed, l.name)
		}
	}
	if len(borrowed) > 0 {
		maxReqs := 4
		if fallback == wHot {
			maxReqs = 64
		}
		fb, err := replay(fallback, o.seed, time.Duration(o.seconds)*time.Second, maxReqs, pristine, filepath.Join(dir, "fallback"), rs.ck)
		if err != nil {
			return res, err
		}
		rs.tally("replay").merge(fb.checks)
		for _, name := range borrowed {
			if v, ok := fb.layers[name]; ok {
				layers[name] = v
			}
		}
		fmt.Printf("measured on a %d-request %s replay (%s never reaches them): %s\n",
			fb.reqs, fallback, o.workload, strings.Join(borrowed, ", "))
	}

	reqP50, _ := ix.median("request")
	fmt.Printf("perfbench %s seed=%d traced: untraced loopback p50 %.4f ms over %d replies; "+
		"traced replay p50 %.4f ms per request (all layer probes + both handlers) over %d requests; host steal share %.3f\n",
		o.workload, o.seed, loopP50, w.completed(), reqP50/1e6, primary.reqs, stealShare(w.before, w.after))
	if o.workload == wHot {
		reconcile(ix)
	}
	fmt.Printf("spans: %s\n", spanFile)
	rs.totals(&res)
	for _, l := range perLayer {
		v, ok := layers[l.name]
		if !ok {
			return res, fmt.Errorf("traced run measured no %s", l.name)
		}
		res.Metrics[l.name] = metric{Value: v, Unit: l.unit}
	}
	return res, nil
}
