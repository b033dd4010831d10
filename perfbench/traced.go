package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/fm"
	"repro/internal/fm/search"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/workspan"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it names. Spans of one request share req; parent
// is the request's root span (0 for roots).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Work is the call's size where a rate is derived from it: cells
	// evaluated for fm.evaluate, moves for search.anneal.
	Work int64 `json:"work,omitempty"`
}

func (s span) ns() float64 { return float64(s.End - s.Start) }

// recorder keeps spans in memory until the run ends; the replay is
// single-threaded, so it needs no lock.
type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) begin(name string, parent, req int) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: int64(time.Since(r.t0))})
	return len(r.spans)
}

func (r *recorder) end(id int) { r.spans[id-1].End = int64(time.Since(r.t0)) }

// timed records fn as one span.
func (r *recorder) timed(name string, parent, req int, fn func()) *span {
	id := r.begin(name, parent, req)
	fn()
	r.end(id)
	return &r.spans[id-1]
}

// replayer replays a workload's request stream in-process, timing each
// layer call the server's path makes for that request, then the real
// handler on two servers: A as mapd configures it, B with Tracer: nil.
type replayer struct {
	rec    *recorder
	a, b   *instance
	st     *store.Store
	cache  *search.EvalCache
	pool   *workspan.Pool
	graphs map[string]*graphDef
	ck     *checker
	reqs   int
	checks tally
	// snap0 is server A's registry when the replay's timed part starts.
	snap0 obs.Snapshot
}

// newReplayer copies the pristine atlas three times (server A, server B
// and the replay's own store) and recovers each copy.
func newReplayer(rec *recorder, ck *checker, pristine, dir string) (*replayer, error) {
	for _, d := range []string{"a", "b", "r"} {
		if err := copyDir(pristine, filepath.Join(dir, d)); err != nil {
			return nil, err
		}
	}
	rp := &replayer{rec: rec, ck: ck, graphs: map[string]*graphDef{},
		cache: search.NewBoundedEvalCache(1 << 16),
		pool:  workspan.NewPool(runtime.GOMAXPROCS(0), workspan.WorkStealing)}
	var err error
	if rp.a, err = startServer(filepath.Join(dir, "a"), true, false); err != nil {
		return nil, err
	}
	rec.spans = append(rec.spans, span{ID: len(rec.spans) + 1, Name: "store.open", End: int64(rp.a.openDur)})
	if rp.b, err = startServer(filepath.Join(dir, "b"), false, false); err != nil {
		rp.a.stop()
		return nil, err
	}
	rec.spans = append(rec.spans, span{ID: len(rec.spans) + 1, Name: "store.open", End: int64(rp.b.openDur)})
	rec.timed("store.open", 0, 0, func() {
		rp.st, err = store.Open(atlasFS{}, filepath.Join(dir, "r"), store.Options{})
	})
	if err != nil {
		rp.a.stop()
		rp.b.stop()
		return nil, err
	}
	return rp, nil
}

func (rp *replayer) close() error {
	rp.pool.Close()
	ea, eb, es := rp.a.stop(), rp.b.stop(), rp.st.Close()
	if ea != nil {
		return ea
	}
	if eb != nil {
		return eb
	}
	return es
}

// serveInMemory runs one request through a server's Handler().ServeHTTP
// on an in-memory request and recorder.
func serveInMemory(in *instance, req *request) (int, []byte) {
	w := httptest.NewRecorder()
	in.srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, req.route, bytes.NewReader(req.body)))
	return w.Code, w.Body.Bytes()
}

// handlers runs the request on A and B, alternating which goes first.
func (rp *replayer) handlers(req *request, root, id int) (int, []byte) {
	var code int
	var body []byte
	a := func() { code, body = serveInMemory(rp.a, req) }
	b := func() { serveInMemory(rp.b, req) }
	if id%2 == 0 {
		rp.rec.timed("serve.handler", root, id, a)
		rp.rec.timed("serve.handler.untraced", root, id, b)
	} else {
		rp.rec.timed("serve.handler.untraced", root, id, b)
		rp.rec.timed("serve.handler", root, id, a)
	}
	return code, body
}

func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// resolve times the graph's materialization and fingerprint for an
// inline request and looks a fingerprint-only one up.
func (rp *replayer) resolve(req *request, tgt serve.TargetSpec, root, id int) (*graphDef, error) {
	inline, fp := req.search != nil && req.search.Recurrence != nil, ""
	if req.eval != nil {
		inline, fp = req.eval.Recurrence != nil, req.eval.GraphFP
	} else if !inline {
		fp = req.search.GraphFP
	}
	if !inline {
		gd, ok := rp.graphs[fp]
		if !ok {
			return nil, fmt.Errorf("replay: graph %s named before it was sent", fp)
		}
		return gd, nil
	}
	gd := &graphDef{rec: req.rec, tgt: tgt}
	var err error
	rp.rec.timed("fm.materialize", root, id, func() { gd.g, gd.dom, err = materialize(req.rec) })
	if err != nil {
		return nil, err
	}
	var gfp uint64
	rp.rec.timed("fm.graph_fp", root, id, func() { gfp = gd.g.Fingerprint() })
	gd.fp = strconv.FormatUint(gfp, 16)
	if gd.ftgt, err = target(tgt); err != nil {
		return nil, err
	}
	rp.graphs[gd.fp] = gd
	return gd, nil
}

// evalSteps are the handler's own steps on a cached eval, the parts
// serve.handler_ms is reconciled against.
var evalSteps = []string{"json.decode", "fm.materialize", "fm.graph_fp", "fm.sched_build", "fm.sched_fp", "search.cache_probe", "store.put", "json.encode"}

// searchSteps are the handler's own steps on a search.
var searchSteps = []string{"json.decode", "fm.materialize", "fm.graph_fp", "search.anneal", "store.put", "json.encode"}

// replayEval times the server's path for one eval request — decode,
// resolve, build, fingerprint, cache probe, atlas lookup, pricing
// (EvalBatch on a fresh cache, and fm.Evaluate with the legality check),
// atlas append, encode — then the handler, and checks the handler's
// answer against the fm.Evaluate prices.
func (rp *replayer) replayEval(req *request, root, id int) error {
	r := rp.rec
	var er serve.EvalRequest
	var err error
	r.timed("json.decode", root, id, func() { err = decodeStrict(req.body, &er) })
	if err != nil {
		return err
	}
	gd, err := rp.resolve(req, er.Target, root, id)
	if err != nil {
		return err
	}
	gfp, _ := strconv.ParseUint(gd.fp, 16, 64)
	var scheds []fm.Schedule
	r.timed("fm.sched_build", root, id, func() { scheds, err = buildSchedules(er.Schedules, gd.g, gd.dom, gd.ftgt) })
	if err != nil {
		return err
	}
	sfps := make([]uint64, len(scheds))
	for i, s := range scheds {
		r.timed("fm.sched_fp", root, id, func() { sfps[i] = s.Fingerprint() })
		r.timed("search.cache_probe", root, id, func() { rp.cache.Lookup(gfp, sfps[i], gd.ftgt) })
		r.timed("store.lookup", root, id, func() { rp.st.Lookup(gfp, sfps[i], gd.ftgt) })
	}
	r.timed("search.evalbatch", root, id, func() {
		_, err = search.EvalBatch(context.Background(), rp.pool, search.NewEvalCache(), gd.g, gfp, scheds, gd.ftgt)
	})
	if err != nil {
		return err
	}
	want := make([]fm.Cost, len(scheds))
	cells := int64(gd.g.NumNodes())
	for i, s := range scheds {
		r.timed("fm.evaluate", root, id, func() { want[i], err = fm.Evaluate(gd.g, s, gd.ftgt, fm.EvalOptions{}) }).Work = cells
		if err != nil {
			return err
		}
	}
	for i, s := range scheds {
		r.timed("store.put", root, id, func() { _, err = rp.st.Put(gfp, gd.ftgt, s, want[i]) })
		if err != nil {
			return err
		}
		rp.cache.Put(gfp, sfps[i], gd.ftgt, want[i])
	}
	r.timed("json.encode", root, id, func() {
		err = json.NewEncoder(&bytes.Buffer{}).Encode(serve.EvalResponse{GraphFP: gd.fp, Costs: want, BatchSize: 1})
	})
	if err != nil {
		return err
	}
	code, body := rp.handlers(req, root, id)
	return rp.ck.checkEval(req.eval, req.rec, code, body, want)
}

// deltaProbes is how many seeded single-node moves each search request's
// fm.DeltaEvaluator prices.
const deltaProbes = 64

// replaySearch times the server's path for one search — decode,
// resolve, the annealer's starting mapping (build, fingerprint, cache
// and atlas probes, fm.Evaluate, EvalBatch), single-node delta moves on
// it, the anneal with the request's options, atlas append, encode —
// then the handler, whose answer must match the replay's anneal.
func (rp *replayer) replaySearch(req *request, root, id int) error {
	r := rp.rec
	var sr serve.SearchRequest
	var err error
	r.timed("json.decode", root, id, func() { err = decodeStrict(req.body, &sr) })
	if err != nil {
		return err
	}
	gd, err := rp.resolve(req, sr.Target, root, id)
	if err != nil {
		return err
	}
	gfp, _ := strconv.ParseUint(gd.fp, 16, 64)
	var start fm.Schedule
	r.timed("fm.sched_build", root, id, func() {
		list := fm.ListSchedule(gd.g, gd.ftgt)
		place := make([]geom.Point, len(list))
		for i, a := range list {
			place[i] = a.Place
		}
		start = search.ASAP(gd.g, place, gd.ftgt)
	})
	var sfp uint64
	r.timed("fm.sched_fp", root, id, func() { sfp = start.Fingerprint() })
	r.timed("search.cache_probe", root, id, func() { rp.cache.Lookup(gfp, sfp, gd.ftgt) })
	r.timed("store.lookup", root, id, func() { rp.st.Lookup(gfp, sfp, gd.ftgt) })
	r.timed("fm.evaluate", root, id, func() { _, err = fm.Evaluate(gd.g, start, gd.ftgt, fm.EvalOptions{}) }).Work = int64(gd.g.NumNodes())
	if err != nil {
		return err
	}
	r.timed("search.evalbatch", root, id, func() {
		_, err = search.EvalBatch(context.Background(), rp.pool, search.NewEvalCache(), gd.g, gfp, []fm.Schedule{start}, gd.ftgt)
	})
	if err != nil {
		return err
	}
	de, err := fm.NewDeltaEvaluator(gd.g, gd.ftgt)
	if err != nil {
		return err
	}
	if _, err := de.Reset(start); err != nil {
		return err
	}
	mv := rand.New(rand.NewSource(sr.Seed))
	for k := 0; k < deltaProbes; k++ {
		n := fm.NodeID(mv.Intn(gd.g.NumNodes()))
		to := gd.ftgt.Grid.At(mv.Intn(gd.ftgt.Grid.Nodes()))
		r.timed("fm.delta_propose", root, id, func() { de.Propose(n, to) })
	}
	opts := searchOptions(&sr)
	opts.Pool = rp.pool
	opts.Cache = search.NewBoundedEvalCache(1 << 16)
	var best fm.Schedule
	var cost fm.Cost
	r.timed("search.anneal", root, id, func() { best, cost, err = search.AnnealResumable(gd.g, gd.ftgt, opts) }).Work = int64(opts.Iters * opts.Chains)
	if err != nil {
		return err
	}
	r.timed("store.put", root, id, func() { _, err = rp.st.Put(gfp, gd.ftgt, best, cost) })
	if err != nil {
		return err
	}
	obj := objectiveOf(sr.Objective)
	r.timed("json.encode", root, id, func() {
		err = json.NewEncoder(&bytes.Buffer{}).Encode(serve.SearchResponse{GraphFP: gd.fp,
			Best:      serve.SearchBest{Objective: obj.Value(cost), Cost: cost, PlacesUsed: cost.PlacesUsed},
			DoneIters: opts.Iters, TotalIters: opts.Iters})
	})
	if err != nil {
		return err
	}
	code, body := rp.handlers(req, root, id)
	return rp.ck.checkSearch(req.search, req.rec, code, body, func() (fm.Cost, error) { return cost, nil })
}

func (rp *replayer) one(req *request) {
	rp.reqs++
	id := rp.reqs
	root := rp.rec.begin("request", 0, id)
	var err error
	if req.eval != nil {
		err = rp.replayEval(req, root, id)
	} else {
		err = rp.replaySearch(req, root, id)
	}
	rp.rec.end(root)
	rp.checks.add(err)
}

// run replays the workload's client streams interleaved, as the two
// clients would send them, for up to budget or maxReqs requests. For
// eval-hot it first replays the corpus once, as the plain run's warm
// pass does, and leaves those spans out.
func (rp *replayer) run(workload string, seed int64, budget time.Duration, maxReqs int) error {
	if workload == wHot {
		mark := len(rp.rec.spans)
		for _, req := range hotCorpus(seed) {
			rp.one(req)
		}
		rp.rec.spans = rp.rec.spans[:mark]
	}
	var err error
	if rp.snap0, err = rp.a.metrics(); err != nil {
		return err
	}
	ss := streams(workload, seed)
	end := time.Now().Add(budget)
	for i := 0; i < maxReqs && time.Now().Before(end); i++ {
		rp.one(ss[i%len(ss)]())
	}
	return nil
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
