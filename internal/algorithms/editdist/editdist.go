// Package editdist implements the panel paper's worked example — the
// dynamic-programming recurrence
//
//	Forall i, j in (0:N-1, 0:N-1)
//	  H(i,j) = min(H(i-1,j-1) + f(R[i],Q[j]), H(i-1,j)+D, H(i,j-1)+I, 0)
//	Map H(i,j) at i % P  time floor(i/P)*N + j
//
// in every guise the paper's models suggest: a serial RAM loop nest, a
// work-span wavefront parallelization over anti-diagonals, and an F&M
// function + the marching anti-diagonal mapping on a linear processor
// array, so one recurrence can be priced under every model.
package editdist

import (
	"fmt"

	"repro/internal/fm"
	"repro/internal/geom"
	"repro/internal/tech"
	"repro/internal/workspan"
)

// Costs parameterizes the recurrence: substitution scores come from F,
// deletions cost D, insertions cost I.
type Costs struct {
	// F scores aligning r against q; 0 for a match, positive mismatch
	// penalty for Levenshtein.
	F func(r, q byte) int32
	// D and I are the gap costs.
	D, I int32
	// ClampZero applies the paper's trailing ", 0" term, clamping every
	// cell at zero (the local-alignment reading of the fragment).
	ClampZero bool
}

// Levenshtein returns the unit-cost edit-distance parameters.
func Levenshtein() Costs {
	return Costs{
		F: func(r, q byte) int32 {
			if r == q {
				return 0
			}
			return 1
		},
		D: 1, I: 1,
	}
}

// boundary returns the virtual H values outside the table for the global
// (Levenshtein-style) recurrence: H(-1, j) = (j+1)*I, H(i, -1) = (i+1)*D,
// H(-1,-1) = 0.
func boundary(i, j int, c Costs) int32 {
	switch {
	case i < 0 && j < 0:
		return 0
	case i < 0:
		return (int32(j) + 1) * c.I
	default:
		return (int32(i) + 1) * c.D
	}
}

func cell(h func(i, j int) int32, i, j int, r, q []byte, c Costs) int32 {
	get := func(a, b int) int32 {
		if a < 0 || b < 0 {
			return boundary(a, b, c)
		}
		return h(a, b)
	}
	v := get(i-1, j-1) + c.F(r[i], q[j])
	if d := get(i-1, j) + c.D; d < v {
		v = d
	}
	if in := get(i, j-1) + c.I; in < v {
		v = in
	}
	if c.ClampZero && v > 0 {
		v = 0
	}
	return v
}

// Serial computes the full DP table with the classic doubly nested loop:
// the serial-RAM projection of the function. The result is the table H,
// with H[len(r)-1][len(q)-1] the score of aligning all of r against all
// of q (the Levenshtein distance under Levenshtein() costs).
func Serial(r, q []byte, c Costs) [][]int32 {
	checkInput(r, q)
	h := make([][]int32, len(r))
	for i := range h {
		h[i] = make([]int32, len(q))
		for j := range h[i] {
			h[i][j] = cell(func(a, b int) int32 { return h[a][b] }, i, j, r, q, c)
		}
	}
	return h
}

// Distance is the convenience wrapper returning only the final score.
func Distance(r, q []byte, c Costs) int32 {
	h := Serial(r, q, c)
	return h[len(r)-1][len(q)-1]
}

// Wavefront computes the same table with the work-span model: cells of
// each anti-diagonal are independent, so every diagonal is one parallel
// for over a fork-join pool. Work O(n*m), span O((n+m) * log) — the
// dependence structure the paper's mapping exploits, expressed as
// fork-join instead of space-time.
func Wavefront(ctx *workspan.Ctx, r, q []byte, c Costs, grain int) [][]int32 {
	checkInput(r, q)
	n, m := len(r), len(q)
	h := make([][]int32, n)
	for i := range h {
		h[i] = make([]int32, m)
	}
	for d := 0; d < n+m-1; d++ {
		lo := 0
		if d >= m {
			lo = d - m + 1
		}
		hi := d
		if hi > n-1 {
			hi = n - 1
		}
		workspan.For(ctx, lo, hi+1, grain, func(ilo, ihi int) {
			for i := ilo; i < ihi; i++ {
				j := d - i
				h[i][j] = cell(func(a, b int) int32 { return h[a][b] }, i, j, r, q, c)
			}
		})
	}
	return h
}

// Recurrence returns the paper's recurrence as an F&M uniform recurrence
// over the |r| x |q| domain, ready for Materialize and any mapping.
func Recurrence(r, q []byte) fm.Recurrence {
	checkInput(r, q)
	return fm.Recurrence{
		Name: "editdist",
		Dims: []int{len(r), len(q)},
		Deps: [][]int{{1, 1}, {1, 0}, {0, 1}},
		Op:   tech.OpAdd, // a DP cell is a handful of add/compare ops
		Bits: 32,
	}
}

// Evaluator returns the semantic evaluator for a materialized edit
// distance graph: fm.Interpret with this function reproduces the DP table
// inside the dataflow graph, proving the function (as opposed to the
// mapping) is the same computation Serial performs.
func Evaluator(dom *fm.Domain, r, q []byte, c Costs) func(n fm.NodeID, deps []int64) int64 {
	idx := make([]int, 2)
	return func(n fm.NodeID, deps []int64) int64 {
		dom.Index(n, idx)
		i, j := idx[0], idx[1]
		// Deps arrive in offset order (1,1), (1,0), (0,1), filtered to
		// those inside the domain; reconstruct the three H values.
		k := 0
		take := func(inDomain bool, bi, bj int) int32 {
			if inDomain {
				v := int32(deps[k])
				k++
				return v
			}
			return boundary(bi, bj, c)
		}
		diag := take(i > 0 && j > 0, i-1, j-1)
		up := take(i > 0, i-1, j)
		left := take(j > 0, i, j-1)

		v := diag + c.F(r[i], q[j])
		if d := up + c.D; d < v {
			v = d
		}
		if in := left + c.I; in < v {
			v = in
		}
		if c.ClampZero && v > 0 {
			v = 0
		}
		return int64(v)
	}
}

// PaperMapping evaluates the recurrence under the paper's anti-diagonal
// mapping on p processors and returns the mapped cost. The target's row 0
// must be at least p wide.
func PaperMapping(r, q []byte, p int, tgt fm.Target) (fm.Cost, error) {
	g, dom, err := Recurrence(r, q).Materialize()
	if err != nil {
		return fm.Cost{}, err
	}
	stride, err := fm.MinAntiDiagonalStrideChecked(tgt, tech.OpAdd, 32, len(q), p)
	if err != nil {
		return fm.Cost{}, err
	}
	sched, err := fm.AntiDiagonalScheduleChecked(dom, p, stride, geom.Pt(0, 0))
	if err != nil {
		return fm.Cost{}, err
	}
	return fm.Evaluate(g, sched, tgt, fm.EvalOptions{})
}

// SerialMapping evaluates the recurrence mapped onto a single node — what
// the conventional serial abstraction does implicitly.
func SerialMapping(r, q []byte, tgt fm.Target) (fm.Cost, error) {
	g, _, err := Recurrence(r, q).Materialize()
	if err != nil {
		return fm.Cost{}, err
	}
	sched := fm.SerialSchedule(g, tgt, geom.Pt(0, 0))
	return fm.Evaluate(g, sched, tgt, fm.EvalOptions{})
}

func checkInput(r, q []byte) {
	if len(r) == 0 || len(q) == 0 {
		panic(fmt.Sprintf("editdist: empty input (|r|=%d, |q|=%d)", len(r), len(q)))
	}
}
