package verify

import (
	"strings"
	"testing"

	"repro/internal/algorithms/editdist"
	"repro/internal/fm"
	"repro/internal/geom"
	"repro/internal/tech"
)

func sumEval(n fm.NodeID, deps []int64) int64 {
	var s int64
	for _, d := range deps {
		s += d
	}
	return s
}

// adder builds a two-level 4-input sum tree.
func adder(t *testing.T) *fm.Graph {
	t.Helper()
	b := fm.NewBuilder("sum4")
	in := []fm.NodeID{b.Input(32), b.Input(32), b.Input(32), b.Input(32)}
	l := b.Op(tech.OpAdd, 32, in[0], in[1])
	r := b.Op(tech.OpAdd, 32, in[2], in[3])
	b.MarkOutput(b.Op(tech.OpAdd, 32, l, r))
	return b.Build()
}

func TestEquivPasses(t *testing.T) {
	g := adder(t)
	res, err := Equiv(g, []int64{-2, 0, 1, 7}, 0, sumEval, func(in []int64) []int64 {
		return []int64{in[0] + in[1] + in[2] + in[3]}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("should be equivalent: %v", res)
	}
	if res.Checked != 256 { // 4^4 assignments
		t.Errorf("Checked = %d, want 256", res.Checked)
	}
	if !strings.Contains(res.String(), "256") {
		t.Errorf("String = %q", res.String())
	}
}

func TestEquivFindsCounterexample(t *testing.T) {
	g := adder(t)
	// Wrong reference: max instead of sum.
	res, err := Equiv(g, []int64{0, 1, 5}, 0, sumEval, func(in []int64) []int64 {
		m := in[0]
		for _, v := range in[1:] {
			if v > m {
				m = v
			}
		}
		return []int64{m}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("should have found a counterexample")
	}
	if len(res.Counterexample) != 4 || len(res.Got) != 1 || len(res.Want) != 1 {
		t.Errorf("counterexample shape wrong: %v", res)
	}
	// The counterexample must actually disagree.
	var sum, max int64
	max = res.Counterexample[0]
	for _, v := range res.Counterexample {
		sum += v
		if v > max {
			max = v
		}
	}
	if res.Got[0] != sum || res.Want[0] != max || sum == max {
		t.Errorf("counterexample inconsistent: %v", res)
	}
	if !strings.Contains(res.String(), "counterexample") {
		t.Errorf("String = %q", res.String())
	}
}

func TestEquivBoundRefusesVacuousPass(t *testing.T) {
	g := adder(t)
	if _, err := Equiv(g, []int64{0, 1, 2, 3, 4, 5, 6, 7}, 100, sumEval, func(in []int64) []int64 {
		return []int64{0}
	}); err == nil {
		t.Fatal("8^4 checks should exceed the bound of 100")
	}
	if _, err := Equiv(g, nil, 0, sumEval, nil); err == nil {
		t.Fatal("empty domain should error")
	}
}

func TestEquivBadReferenceArity(t *testing.T) {
	g := adder(t)
	if _, err := Equiv(g, []int64{1}, 0, sumEval, func(in []int64) []int64 {
		return []int64{1, 2}
	}); err == nil {
		t.Fatal("wrong reference arity should error")
	}
}

// TestEquivEditDistance verifies the edit-distance dataflow graph against
// the serial DP over all byte strings of length 3 from a 2-letter
// alphabet: 2^3 x 2^3 = 64 string pairs, each a separate graph — a
// bounded-exhaustive check of the RECURRENCE itself.
func TestEquivEditDistance(t *testing.T) {
	alphabet := []byte{'a', 'b'}
	var enumerate func(prefix []byte, f func([]byte))
	enumerate = func(prefix []byte, f func([]byte)) {
		if len(prefix) == 3 {
			f(prefix)
			return
		}
		for _, c := range alphabet {
			enumerate(append(prefix, c), f)
		}
	}
	count := 0
	enumerate(nil, func(r []byte) {
		rr := append([]byte(nil), r...)
		enumerate(nil, func(q []byte) {
			count++
			g, dom, err := editdist.Recurrence(rr, q).Materialize()
			if err != nil {
				t.Fatal(err)
			}
			vals, err := fm.Interpret(g, nil, editdist.Evaluator(dom, rr, q, editdist.Levenshtein()))
			if err != nil {
				t.Fatal(err)
			}
			want := editdist.Distance(rr, q, editdist.Levenshtein())
			if got := vals[dom.Node(2, 2)]; got != int64(want) {
				t.Fatalf("graph distance(%q,%q) = %d, serial = %d", rr, q, got, want)
			}
		})
	})
	if count != 64 {
		t.Fatalf("enumerated %d pairs, want 64", count)
	}
}

func TestRefineAcceptsLegalSchedules(t *testing.T) {
	g := adder(t)
	tgt := fm.DefaultTarget(4, 4)
	for name, sched := range map[string]fm.Schedule{
		"serial":  fm.SerialSchedule(g, tgt, geom.Pt(0, 0)),
		"default": fm.ListSchedule(g, tgt),
	} {
		res := Refine(g, sched, tgt)
		if !res.OK() {
			t.Errorf("%s: refinement failed: %+v", name, res)
		}
		if res.Transfers != 6 {
			t.Errorf("%s: transfers = %d, want 6 edges", name, res.Transfers)
		}
	}
}

func TestRefineCatchesCausalityViolation(t *testing.T) {
	b := fm.NewBuilder("pair")
	in := b.Input(32)
	op := b.Op(tech.OpAdd, 32, in)
	b.MarkOutput(op)
	g := b.Build()
	tgt := fm.DefaultTarget(4, 1)
	sched := fm.Schedule{
		{Place: geom.Pt(0, 0), Time: 0},
		{Place: geom.Pt(3, 0), Time: 5}, // needs 27 transit cycles
	}
	res := Refine(g, sched, tgt)
	if len(res.Violations) != 1 {
		t.Fatalf("violations = %+v", res.Violations)
	}
	v := res.Violations[0]
	if v.Producer != in || v.Consumer != op || v.Arrived != 27 || v.Scheduled != 5 {
		t.Errorf("violation detail = %+v", v)
	}
	if !res.AgreesWithCheck {
		t.Error("fm.Check should agree this is illegal")
	}
	if res.OK() {
		t.Error("OK should be false")
	}
	if v.String() == "" {
		t.Error("empty violation string")
	}
}

func TestRefineAgreesWithCheckOnBoundary(t *testing.T) {
	// Exactly at the arrival cycle: both engines must accept.
	b := fm.NewBuilder("pair")
	in := b.Input(32)
	op := b.Op(tech.OpAdd, 32, in)
	b.MarkOutput(op)
	g := b.Build()
	tgt := fm.DefaultTarget(4, 1)
	sched := fm.Schedule{
		{Place: geom.Pt(0, 0), Time: 0},
		{Place: geom.Pt(3, 0), Time: 27},
	}
	res := Refine(g, sched, tgt)
	if !res.OK() {
		t.Errorf("boundary schedule should verify: %+v", res)
	}
	// One cycle earlier: both must reject.
	sched[1].Time = 26
	res = Refine(g, sched, tgt)
	if res.OK() || len(res.Violations) == 0 {
		t.Errorf("one cycle early should fail: %+v", res)
	}
}

func TestRefineToleratesNonCausalityCheckFailures(t *testing.T) {
	// Two ops in the same issue slot: Check rejects (occupancy), the
	// replay has no violations — the engines still count as agreeing.
	b := fm.NewBuilder("two")
	x := b.Op(tech.OpAdd, 32)
	y := b.Op(tech.OpAdd, 32)
	b.MarkOutput(x)
	b.MarkOutput(y)
	g := b.Build()
	tgt := fm.DefaultTarget(2, 2)
	sched := fm.Schedule{
		{Place: geom.Pt(0, 0), Time: 0},
		{Place: geom.Pt(0, 0), Time: 0},
	}
	res := Refine(g, sched, tgt)
	if len(res.Violations) != 0 {
		t.Errorf("replay should see no causality problem: %+v", res)
	}
	if !res.AgreesWithCheck {
		t.Error("occupancy-only failures are outside the replay's scope")
	}
}

func TestRefineShortSchedule(t *testing.T) {
	g := adder(t)
	res := Refine(g, fm.Schedule{}, fm.DefaultTarget(2, 2))
	if !res.AgreesWithCheck {
		t.Error("both engines should reject a short schedule")
	}
}

// TestRefineAntiDiagonal cross-verifies the paper's mapping end to end:
// the operational replay certifies what fm.Check certified.
func TestRefineAntiDiagonal(t *testing.T) {
	r := make([]byte, 16)
	q := make([]byte, 16)
	g, dom, err := editdist.Recurrence(r, q).Materialize()
	if err != nil {
		t.Fatal(err)
	}
	tgt := fm.DefaultTarget(4, 1)
	tgt.MemWordsPerNode = 1 << 20
	stride, err := fm.MinAntiDiagonalStrideChecked(tgt, tech.OpAdd, 32, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := fm.AntiDiagonalScheduleChecked(dom, 4, stride, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	res := Refine(g, sched, tgt)
	if !res.OK() {
		t.Fatalf("anti-diagonal mapping failed refinement: %d violations", len(res.Violations))
	}
	// Mutating one assignment to break causality must be caught.
	bad := append(fm.Schedule(nil), sched...)
	bad[dom.Node(8, 8)] = fm.Assignment{Place: geom.Pt(0, 0), Time: 0}
	res = Refine(g, bad, tgt)
	if res.OK() {
		t.Fatal("mutated schedule should fail")
	}
	if !res.AgreesWithCheck {
		t.Fatal("engines disagree on the mutated schedule")
	}
}
