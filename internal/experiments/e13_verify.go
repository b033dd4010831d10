package experiments

import (
	"repro/internal/algorithms/editdist"
	"repro/internal/fm"
	"repro/internal/geom"
	"repro/internal/stats"
	"repro/internal/tech"
	"repro/internal/verify"
)

// E13 reproduces Martonosi's position — "a shift towards formal
// specifications that support automated full-stack verification for
// correctness and security" — on this repository's own stack. The F&M
// function is the formal specification; two independent engines verify
// it downward: bounded-exhaustive equivalence checking of functions
// against reference specifications (with counterexample extraction), and
// operational refinement of mappings (an event replay that must agree
// with the declarative legality checker, including on deliberately
// injected bugs).
func E13() Result {
	t := stats.NewTable("E13: full-stack verification",
		"check", "object", "space", "outcome", "within")
	pass := true

	// 1. Equivalence: sum tree vs its specification, exhaustively.
	b := fm.NewBuilder("sum4")
	in := []fm.NodeID{b.Input(32), b.Input(32), b.Input(32), b.Input(32)}
	l := b.Op(tech.OpAdd, 32, in[0], in[1])
	r := b.Op(tech.OpAdd, 32, in[2], in[3])
	b.MarkOutput(b.Op(tech.OpAdd, 32, l, r))
	sum4 := b.Build()
	sumEval := func(n fm.NodeID, deps []int64) int64 {
		var s int64
		for _, d := range deps {
			s += d
		}
		return s
	}
	res, err := verify.Equiv(sum4, []int64{-3, 0, 1, 9}, 0, sumEval, func(xs []int64) []int64 {
		return []int64{xs[0] + xs[1] + xs[2] + xs[3]}
	})
	if err != nil {
		return failure("E13", err)
	}
	okEq := res.OK() && res.Checked == 256
	pass = pass && okEq
	t.AddRow("equivalence", "sum tree vs spec", "4^4 = 256 assignments", "equivalent", verdict(okEq))

	// 2. Counterexample extraction: a deliberately wrong spec must be
	// refuted with a concrete witness.
	res2, err := verify.Equiv(sum4, []int64{0, 1, 5}, 0, sumEval, func(xs []int64) []int64 {
		m := xs[0]
		for _, v := range xs[1:] {
			if v > m {
				m = v
			}
		}
		return []int64{m}
	})
	if err != nil {
		return failure("E13", err)
	}
	okCex := !res2.OK() && len(res2.Counterexample) == 4
	pass = pass && okCex
	t.AddRow("refutation", "sum tree vs WRONG spec (max)", "3^4 assignments", "counterexample found", verdict(okCex))

	// 3. Equivalence of the paper's recurrence against the serial DP over
	// all 2-letter string pairs of length 3 (a distinct graph per pair).
	okDP := true
	pairs := 0
	alpha := []byte{'a', 'b'}
	var rec func(s []byte, f func([]byte))
	rec = func(s []byte, f func([]byte)) {
		if len(s) == 3 {
			f(s)
			return
		}
		for _, c := range alpha {
			rec(append(s, c), f)
		}
	}
	rec(nil, func(rs []byte) {
		rr := append([]byte(nil), rs...)
		rec(nil, func(qs []byte) {
			pairs++
			g, dom, err := editdist.Recurrence(rr, qs).Materialize()
			if err != nil {
				okDP = false
				return
			}
			vals, err := fm.Interpret(g, nil, editdist.Evaluator(dom, rr, qs, editdist.Levenshtein()))
			if err != nil {
				okDP = false
				return
			}
			if vals[dom.Node(2, 2)] != int64(editdist.Distance(rr, qs, editdist.Levenshtein())) {
				okDP = false
			}
		})
	})
	okDP = okDP && pairs == 64
	pass = pass && okDP
	t.AddRow("equivalence", "edit-distance recurrence vs serial DP", "64 string pairs", "equivalent", verdict(okDP))

	// 4. Refinement: the paper's mapping replayed operationally, plus a
	// mutation that both engines must reject in agreement.
	rr := make([]byte, 16)
	qq := make([]byte, 16)
	g, dom, err := editdist.Recurrence(rr, qq).Materialize()
	if err != nil {
		return failure("E13", err)
	}
	tgt := fm.DefaultTarget(4, 1)
	tgt.MemWordsPerNode = 1 << 20
	stride, err := fm.MinAntiDiagonalStrideChecked(tgt, tech.OpAdd, 32, 16, 4)
	if err != nil {
		return failure("E13", err)
	}
	sched, err := fm.AntiDiagonalScheduleChecked(dom, 4, stride, geom.Pt(0, 0))
	if err != nil {
		return failure("E13", err)
	}
	ref := verify.Refine(g, sched, tgt)
	okRef := ref.OK()
	pass = pass && okRef
	t.AddRow("refinement", "anti-diagonal mapping replay", "768 transfers", "certified", verdict(okRef))

	mutated := append(fm.Schedule(nil), sched...)
	mutated[dom.Node(8, 8)] = fm.Assignment{Place: geom.Pt(0, 0), Time: 0}
	refBad := verify.Refine(g, mutated, tgt)
	okBug := !refBad.OK() && refBad.AgreesWithCheck && len(refBad.Violations) > 0
	pass = pass && okBug
	t.AddRow("bug injection", "mutated mapping", "1 corrupted cell", "both engines reject, in agreement", verdict(okBug))

	return Result{
		ID:    "E13",
		Claim: "formal specifications support automated full-stack verification (Martonosi): functions check against specs exhaustively, mappings replay operationally, independent engines agree",
		Table: t,
		Pass:  pass,
		Notes: []string{"bounded-exhaustive checking is exhaustive within its bound and refuses vacuous passes when the bound is exceeded"},
	}
}
