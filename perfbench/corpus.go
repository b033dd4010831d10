package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/fm"
	"repro/internal/serve"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wHot    = "eval-hot"
	wCold   = "eval-cold"
	wSearch = "search"
)

var workloadNames = []string{wHot, wCold, wSearch}

// clients is the closed-loop client count: one per core of the 2-vCPU
// reference machine. Each client owns one request stream.
const clients = 2

// request is one generated request: the body sent on the wire plus the
// parsed form and the named recurrence the checker needs.
type request struct {
	route  string
	body   []byte
	eval   *serve.EvalRequest
	search *serve.SearchRequest
	// rec is the recurrence the request names, inline or by fingerprint.
	rec serve.RecurrenceSpec
	// entry is the eval-hot corpus index (answers to one entry repeat, so
	// they are checked once per distinct body); -1 elsewhere.
	entry int
}

// stream yields one client's requests in order. Streams are pure
// functions of (workload, seed, client): every graph a client names by
// fingerprint it has sent inline earlier in the same stream, so a
// closed-loop client never meets a 404.
type stream func() *request

// rngFor derives an independent generator per (seed, purpose, client).
func rngFor(seed int64, purpose string, client int) *rand.Rand {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(client+1)*0xbf58476d1ce4e5b9
	for _, c := range purpose {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// graphDef is one recurrence with its target and fingerprint.
type graphDef struct {
	rec  serve.RecurrenceSpec
	tgt  serve.TargetSpec
	fp   string
	g    *fm.Graph
	dom  *fm.Domain
	ftgt fm.Target
}

func newGraphDef(rec serve.RecurrenceSpec, tgt serve.TargetSpec) *graphDef {
	g, dom, err := materialize(rec)
	if err != nil {
		panic(fmt.Sprintf("perfbench: generated recurrence invalid: %v", err))
	}
	ft, err := target(tgt)
	if err != nil {
		panic(fmt.Sprintf("perfbench: generated target invalid: %v", err))
	}
	return &graphDef{rec: rec, tgt: tgt, fp: strconv.FormatUint(g.Fingerprint(), 16), g: g, dom: dom, ftgt: ft}
}

// randDeps draws one of two dependence sets of equal size, so the seed
// does not change how many edges a graph has. Both hold (1,0): every
// cell of rows 0..m-2 feeds the next row, which the anti-diagonal closed
// forms in check.go rely on.
func randDeps(r *rand.Rand) [][]int {
	if r.Intn(2) == 0 {
		return [][]int{{1, 0}, {0, 1}}
	}
	return [][]int{{1, 0}, {1, 1}}
}

func clip(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func minStride(gd *graphDef, p int) int64 {
	out := gd.g.Outputs()[0]
	s, err := fm.MinAntiDiagonalStrideChecked(gd.ftgt, gd.g.Op(out), gd.g.Bits(out), gd.dom.Dims()[1], p)
	if err != nil {
		panic(fmt.Sprintf("perfbench: min stride: %v", err))
	}
	return s
}

func evalRequest(gd *graphDef, inline bool, scheds []serve.ScheduleSpec, entry int) *request {
	req := &serve.EvalRequest{Target: gd.tgt, Schedules: scheds}
	if inline {
		rec := gd.rec
		req.Recurrence = &rec
	} else {
		req.GraphFP = gd.fp
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return &request{route: "/v1/eval", body: body, eval: req, rec: gd.rec, entry: entry}
}

// hotSides is the eval-hot graph ladder, 6x6 to 24x24. Each rung's
// shape, target and request shapes are fixed; the seed varies the
// dependence set, op, width and schedule parameters and which requests
// are inline. That keeps the cost of the corpus steady across seeds.
var hotSides = []int{6, 8, 10, 12, 15, 18, 21, 24}

var opNames = []string{"add", "mul", "cmp", "logic", "fma"}

var kinds = []string{"serial", "list", "antidiagonal", "affine"}

// hotCorpus builds the eval-hot corpus: per graph four requests carrying
// 1, 2, 3 and 4 schedules, two of them inline and two by fingerprint.
// Inline entries come first in the slice, so a warm pass in slice order
// registers every graph before any fingerprint-only request names it.
func hotCorpus(seed int64) []*request {
	r := rngFor(seed, "hot-corpus", 0)
	var inline, byFP []*request
	for gi, s := range hotSides {
		rec := serve.RecurrenceSpec{
			Name: fmt.Sprintf("hot%d", gi),
			Dims: []int{s, clip(s+gi%3-1, 6, 24)},
			Deps: randDeps(r),
			Op:   opNames[r.Intn(len(opNames))],
			Bits: []int{16, 32}[r.Intn(2)],
		}
		gd := newGraphDef(rec, serve.TargetSpec{Width: 4 + gi%5, Height: 1 + gi%2})
		m, n := rec.Dims[0], rec.Dims[1]
		inlineSet := r.Perm(4)[:2]
		for j := 0; j < 4; j++ {
			scheds := make([]serve.ScheduleSpec, j+1)
			for k := range scheds {
				scheds[k] = hotSchedule(r, gd, kinds[(gi+j+k)%len(kinds)], m, n)
			}
			isInline := j == inlineSet[0] || j == inlineSet[1]
			req := evalRequest(gd, isInline, scheds, 0)
			if isInline {
				inline = append(inline, req)
			} else {
				byFP = append(byFP, req)
			}
		}
	}
	corpus := append(inline, byFP...)
	for i, req := range corpus {
		req.entry = i
	}
	return corpus
}

// hotSchedule draws one legal schedule of the given kind. Affine
// schedules place cells along rows or columns and space their start
// times by a step that covers the op and the longest hop, so every cell
// gets its own start cycle and every dependence its transit: legal by
// construction.
func hotSchedule(r *rand.Rand, gd *graphDef, kind string, m, n int) serve.ScheduleSpec {
	w := gd.tgt.Width
	switch kind {
	case "antidiagonal":
		p := 1 + r.Intn(min(w, n))
		var stride int64
		if r.Intn(2) == 0 {
			stride = minStride(gd, p) + int64(r.Intn(3))
		}
		return serve.ScheduleSpec{Kind: kind, P: p, Stride: stride}
	case "affine":
		out := gd.g.Outputs()[0]
		if r.Intn(2) == 0 {
			p := 1 + r.Intn(min(w, m))
			step := gd.ftgt.OpCycles(gd.g.Op(out), gd.g.Bits(out)) + gd.ftgt.TransitCycles(p-1)
			return serve.ScheduleSpec{Kind: kind, P: p, A1: 1, T1: int64(n) * step, T2: step}
		}
		p := 1 + r.Intn(min(w, n))
		step := gd.ftgt.OpCycles(gd.g.Op(out), gd.g.Bits(out)) + gd.ftgt.TransitCycles(p-1)
		return serve.ScheduleSpec{Kind: kind, P: p, A2: 1, T1: step, T2: int64(m) * step}
	default:
		return serve.ScheduleSpec{Kind: kind}
	}
}

func hotStream(corpus []*request, seed int64, client int) stream {
	r := rngFor(seed, "hot-stream", client)
	return func() *request { return corpus[r.Intn(len(corpus))] }
}

// coldSides is the eval-cold graph ladder, 24x24 to 64x64; each client
// owns one graph per rung, of a fixed shape and target.
var coldSides = []int{24, 30, 36, 42, 48, 54, 60, 64}

// coldStream generates eval-cold requests for one client: a uniformly
// drawn graph of the client's own, 1-8 anti-diagonal schedules with
// p <= min(width, columns) and strides min+2k+client for a per-client
// counter k, so no (graph, p, stride) repeats within a run and no
// mapping is in the atlas or the cache.
func coldStream(seed int64, client int) stream {
	r := rngFor(seed, "cold", client)
	graphs := make([]*graphDef, len(coldSides))
	for i, s := range coldSides {
		rec := serve.RecurrenceSpec{
			Name: fmt.Sprintf("cold%d.%d", client, i),
			Dims: []int{s, clip(s+i%3-1, 24, 64)},
			Deps: randDeps(r),
			Op:   []string{"add", "cmp", "logic"}[r.Intn(3)],
		}
		graphs[i] = newGraphDef(rec, serve.TargetSpec{Width: 8 + i})
	}
	sent := make([]bool, len(graphs))
	var k int64
	return func() *request {
		gi := r.Intn(len(graphs))
		gd := graphs[gi]
		n := gd.rec.Dims[1]
		scheds := make([]serve.ScheduleSpec, 1+r.Intn(8))
		for i := range scheds {
			p := 1 + r.Intn(min(gd.tgt.Width, n))
			scheds[i] = serve.ScheduleSpec{Kind: "antidiagonal", P: p, Stride: minStride(gd, p) + 2*k + int64(client)}
			k++
		}
		req := evalRequest(gd, !sent[gi], scheds, -1)
		sent[gi] = true
		return req
	}
}

var searchObjectives = []string{"time", "energy", "edp"}

// searchGraphs are the search workload's two recurrences of 320 and 324
// cells (shared by both clients) on a 4x4 grid. They are the same for
// every seed: anneal cost depends on the graph, so the seed varies only
// the anneal seeds.
func searchGraphs() []*graphDef {
	out := make([]*graphDef, 2)
	for i, dims := range [][]int{{16, 20}, {18, 18}} {
		rec := serve.RecurrenceSpec{
			Name: fmt.Sprintf("search%d", i),
			Dims: dims,
			Deps: [][]int{{1, 0}, {0, 1}, {1, 1}},
		}
		out[i] = newGraphDef(rec, serve.TargetSpec{Width: 4, Height: 4})
	}
	return out
}

// searchStream alternates the two graphs, cycles the objectives, and
// gives every request its own anneal seed (distinct across clients), at
// the server's default iterations and chains.
func searchStream(seed int64, client int) stream {
	graphs := searchGraphs()
	sent := make([]bool, len(graphs))
	i := 0
	return func() *request {
		gi := (i + client) % len(graphs)
		gd := graphs[gi]
		req := &serve.SearchRequest{
			Target:    gd.tgt,
			Objective: searchObjectives[i%len(searchObjectives)],
			Seed:      seed*1_000_003 + int64(2*i+client) + 1,
		}
		if sent[gi] {
			req.GraphFP = gd.fp
		} else {
			rec := gd.rec
			req.Recurrence = &rec
			sent[gi] = true
		}
		i++
		body, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		return &request{route: "/v1/search", body: body, search: req, rec: gd.rec, entry: -1}
	}
}

// streams returns one stream per client for the workload.
func streams(workload string, seed int64) []stream {
	out := make([]stream, clients)
	var corpus []*request
	if workload == wHot {
		corpus = hotCorpus(seed)
	}
	for c := range out {
		switch workload {
		case wHot:
			out[c] = hotStream(corpus, seed, c)
		case wCold:
			out[c] = coldStream(seed, c)
		case wSearch:
			out[c] = searchStream(seed, c)
		}
	}
	return out
}

// atlasRecords is the shared atlas's size: recovering it takes on the
// order of a second on the reference machine.
const atlasRecords = 1000

// atlasMapping is one mapping the atlas is seeded with.
type atlasMapping struct {
	gd    *graphDef
	sched fm.Schedule
}

// atlasMappings lists the atlas contents for a seed: every eval-hot
// corpus mapping, then 24x24 anti-diagonal filler mappings (graphs and
// strides no workload requests) up to atlasRecords distinct mappings.
func atlasMappings(seed int64) ([]atlasMapping, error) {
	var out []atlasMapping
	seen := map[[3]uint64]bool{}
	add := func(gd *graphDef, s fm.Schedule) {
		k := [3]uint64{gd.g.Fingerprint(), s.Fingerprint(), uint64(gd.ftgt.Grid.Width)<<32 | uint64(gd.ftgt.Grid.Height)}
		if !seen[k] && len(out) < atlasRecords {
			seen[k] = true
			out = append(out, atlasMapping{gd: gd, sched: s})
		}
	}
	for _, req := range hotCorpus(seed) {
		gd := newGraphDef(req.rec, req.eval.Target)
		scheds, err := buildSchedules(req.eval.Schedules, gd.g, gd.dom, gd.ftgt)
		if err != nil {
			return nil, err
		}
		for _, s := range scheds {
			add(gd, s)
		}
	}
	r := rngFor(seed, "filler", 0)
	var fillers []*graphDef
	for i := 0; i < 4; i++ {
		rec := serve.RecurrenceSpec{Name: fmt.Sprintf("filler%d", i), Dims: []int{24, 24}, Deps: randDeps(r), Op: "logic", Bits: 8}
		fillers = append(fillers, newGraphDef(rec, serve.TargetSpec{Width: 16}))
	}
	for k := 0; len(out) < atlasRecords; k++ {
		gd := fillers[k%len(fillers)]
		p := 1 + (k/len(fillers))%16
		stride := minStride(gd, p) + 1000 + int64(k)
		s, err := fm.AntiDiagonalScheduleChecked(gd.dom, p, stride, gd.ftgt.Grid.At(0))
		if err != nil {
			return nil, err
		}
		add(gd, s)
	}
	return out, nil
}
