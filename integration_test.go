package repro

import (
	"strings"
	"testing"

	"repro/internal/algorithms/editdist"
	"repro/internal/algorithms/matmul"
	"repro/internal/fm"
	"repro/internal/fm/search"
	"repro/internal/geom"
	"repro/internal/idioms"
	"repro/internal/lower"
	"repro/internal/tech"
	"repro/internal/trace"
	"repro/internal/verify"
)

// TestEndToEndEditDistancePipeline drives the full stack on the paper's
// worked example: materialize the recurrence, verify its semantics, map
// it with the paper's fragment, check and refine the mapping, price it,
// search for a better one, and lower the result to hardware. Every layer
// of the repository participates.
func TestEndToEndEditDistancePipeline(t *testing.T) {
	r := []byte("spaa-panel")
	q := []byte("spa-pannel")

	// 1. Function: materialize and verify semantics against the serial DP.
	g, dom, err := editdist.Recurrence(r, q).Materialize()
	if err != nil {
		t.Fatal(err)
	}
	vals, err := fm.Interpret(g, nil, editdist.Evaluator(dom, r, q, editdist.Levenshtein()))
	if err != nil {
		t.Fatal(err)
	}
	want := editdist.Distance(r, q, editdist.Levenshtein())
	if got := vals[dom.Node(len(r)-1, len(q)-1)]; got != int64(want) {
		t.Fatalf("graph distance %d != serial %d", got, want)
	}

	// 2. Mapping: the paper's anti-diagonal fragment on 5 processors.
	tgt := fm.DefaultTarget(5, 1)
	tgt.Grid.PitchMM = 0.1
	tgt.MemWordsPerNode = 1 << 20
	stride, err := fm.MinAntiDiagonalStrideChecked(tgt, tech.OpAdd, 32, len(q), 5)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := fm.AntiDiagonalScheduleChecked(dom, 5, stride, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}

	// 3. Legality, two independent engines.
	if err := fm.Check(g, sched, tgt); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if res := verify.Refine(g, sched, tgt); !res.OK() {
		t.Fatalf("Refine: %d violations", len(res.Violations))
	}

	// 4. Cost, with a trace.
	tr := trace.New()
	cost, err := fm.Evaluate(g, sched, tgt, fm.EvalOptions{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	serialCost, err := editdist.SerialMapping(r, q, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Cycles >= serialCost.Cycles {
		t.Errorf("paper mapping (%d) should beat serial (%d)", cost.Cycles, serialCost.Cycles)
	}
	if tr.Len() == 0 {
		t.Error("trace empty")
	}
	if out := trace.Render(tr, trace.RenderOptions{Grid: tgt.Grid, Columns: 40}); !strings.Contains(out, "space-time") {
		t.Error("render failed")
	}
	if s := trace.ChromeTraceString(tr, tgt.Grid); !strings.HasPrefix(s, "[") {
		t.Error("chrome export failed")
	}

	// 5. Search: the affine family should contain something at least as
	// good as some legal candidate, and the Pareto front is non-trivial.
	// The affine family needs tau large enough for the wrap dependence
	// (op + hop*(P-1) within one row step): tau=8 at P=4 on this pitch.
	cands := search.Exhaustive2D(g, dom, tgt, search.Affine2DOptions{P: 4, MaxTau: 8})
	if len(cands) < 2 {
		t.Fatalf("search found %d candidates", len(cands))
	}
	best := search.Best(cands, search.MinTime)
	if best.Cost.Cycles >= serialCost.Cycles {
		t.Errorf("search best (%d) should beat serial (%d)", best.Cost.Cycles, serialCost.Cycles)
	}

	// 6. Lowering: a linear systolic array with one add-class PE per column.
	arch, err := lower.Lower(g, sched, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if len(arch.PEs) != 5 || !arch.IsLinearArray() {
		t.Fatalf("lowering: %d PEs, linear=%v", len(arch.PEs), arch.IsLinearArray())
	}
	if v := arch.Verilog(); !strings.Contains(v, "module top(") {
		t.Error("netlist missing top module")
	}
}

// TestEndToEndIdiomPipeline composes idiom modules, remaps between
// layouts, verifies the composite semantically, and prices it.
func TestEndToEndIdiomPipeline(t *testing.T) {
	const n = 8
	tgt := fm.DefaultTarget(8, 1)
	tgt.MemWordsPerNode = 1 << 20
	lay := idioms.BlockCyclic(tgt.Grid)
	rev := func(i int) geom.Point { return tgt.Grid.At(n - 1 - i) }

	mp := idioms.Map(tgt, n, tech.OpAdd, 32, lay)
	sc := idioms.ScanBlelloch(tgt, n, tech.OpAdd, 32, lay)
	rd := idioms.Reduce(tgt, n, tech.OpAdd, 32, rev)

	stage1, err := fm.ComposeAligned("map;scan", mp, sc, tgt)
	if err != nil {
		t.Fatal(err)
	}
	full, st, err := fm.ComposeWithRemap("map;scan>reduce", stage1, rd, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if st.Moves == 0 {
		t.Error("reversed layout should need a shuffle")
	}
	if err := fm.Check(full.Graph, full.Sched, tgt); err != nil {
		t.Fatalf("composite illegal: %v", err)
	}

	// Semantics: reduce(scan(x)) with x = 1..8: sum of prefix sums = 120.
	inputs := make([]int64, n)
	for i := range inputs {
		inputs[i] = int64(i + 1)
	}
	vals, err := fm.Interpret(full.Graph, inputs, func(nd fm.NodeID, deps []int64) int64 {
		if len(deps) == 1 {
			return deps[0]
		}
		var s int64
		for _, d := range deps {
			s += d
		}
		return s
	})
	if err != nil {
		t.Fatal(err)
	}
	out := vals[full.Out[0].Nodes[0]]
	if out != 120 {
		t.Errorf("reduce(scan(1..8)) = %d, want 120", out)
	}

	cost, err := fm.Evaluate(full.Graph, full.Sched, tgt, fm.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cost.Messages == 0 || cost.WireEnergy == 0 {
		t.Error("composite pipeline should communicate")
	}
}

// TestEndToEndSystolicVerifiedAndLowered ties matmul, verification, and
// lowering together on the forwarded systolic array.
func TestEndToEndSystolicVerifiedAndLowered(t *testing.T) {
	const n = 4
	tgt := fm.DefaultTarget(n, n)
	tgt.Grid.PitchMM = 0.2
	tgt.MemWordsPerNode = 1 << 20
	f := matmul.BuildForwarded(n, tgt)

	a := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	b := []int64{1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1}
	got := f.Interpret(a, b)
	for i := range a {
		if got[i] != a[i] {
			t.Fatalf("A*I wrong at %d", i)
		}
	}
	if res := verify.Refine(f.Graph, f.Sched, tgt); !res.OK() {
		t.Fatal("systolic array failed refinement")
	}
	arch, err := lower.Lower(f.Graph, f.Sched, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if len(arch.PEs) != n*n {
		t.Fatalf("PEs = %d", len(arch.PEs))
	}
}
