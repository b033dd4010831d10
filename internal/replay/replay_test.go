package replay

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/fm"
	"repro/internal/geom"
	"repro/internal/tech"
	"repro/internal/trace"
)

func dpMapping(t *testing.T, n, p int) (*fm.Graph, fm.Schedule, fm.Target) {
	t.Helper()
	g, dom, err := fm.Recurrence{
		Name: "dp",
		Dims: []int{n, n},
		Deps: [][]int{{1, 1}, {1, 0}, {0, 1}},
		Op:   tech.OpAdd,
		Bits: 32,
	}.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	tgt := fm.DefaultTarget(p, 1)
	tgt.MemWordsPerNode = 1 << 20
	stride, err := fm.MinAntiDiagonalStrideChecked(tgt, tech.OpAdd, 32, n, p)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := fm.AntiDiagonalScheduleChecked(dom, p, stride, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := fm.Check(g, sched, tgt); err != nil {
		t.Fatalf("fixture mapping illegal: %v", err)
	}
	return g, sched, tgt
}

// run replays the fixture with the given injector and returns the trace
// events and metrics.
func run(t *testing.T, g *fm.Graph, sched fm.Schedule, tgt fm.Target, in *fault.Injector) ([]trace.Event, float64) {
	t.Helper()
	tr := trace.New()
	m, err := MachineFor(tgt, in, tr)
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := Run(g, sched, tgt, m)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return append([]trace.Event(nil), tr.Events()...), metrics.Makespan
}

func TestRateZeroBitForBit(t *testing.T) {
	g, sched, tgt := dpMapping(t, 10, 4)
	bare, bareSpan := run(t, g, sched, tgt, nil)

	in, err := fault.New(fault.Config{Seed: 99, Rate: 0})
	if err != nil {
		t.Fatal(err)
	}
	faulted, faultedSpan := run(t, g, sched, tgt, in)
	if bareSpan != faultedSpan {
		t.Fatalf("rate-0 makespan %g != fault-free %g", faultedSpan, bareSpan)
	}
	if !reflect.DeepEqual(bare, faulted) {
		t.Fatal("rate-0 trace is not bit-for-bit the fault-free trace")
	}
}

func TestSameSeedSameTraceAcrossGOMAXPROCS(t *testing.T) {
	g, sched, tgt := dpMapping(t, 10, 4)
	newInj := func() *fault.Injector {
		in, err := fault.New(fault.Config{Seed: 7, Rate: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	ref, refSpan := run(t, g, sched, tgt, newInj())
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		got, gotSpan := run(t, g, sched, tgt, newInj())
		runtime.GOMAXPROCS(prev)
		if gotSpan != refSpan || !reflect.DeepEqual(ref, got) {
			t.Fatalf("GOMAXPROCS=%d: faulted trace diverged (makespan %g vs %g)", procs, gotSpan, refSpan)
		}
	}
}

func TestFaultsOnlyDelay(t *testing.T) {
	g, sched, tgt := dpMapping(t, 10, 4)
	_, bareSpan := run(t, g, sched, tgt, nil)
	in, err := fault.New(fault.Config{Seed: 3, Rate: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	events, faultedSpan := run(t, g, sched, tgt, in)
	if faultedSpan < bareSpan {
		t.Fatalf("faults shortened the run: %g < %g", faultedSpan, bareSpan)
	}
	if in.Stats().Events() == 0 {
		t.Fatal("rate 0.25 injected no faults")
	}
	nFault := 0
	for _, e := range events {
		if e.Kind == trace.KindFault {
			nFault++
			if e.End < e.Start {
				t.Fatalf("fault event with negative duration: %+v", e)
			}
		}
	}
	if nFault == 0 {
		t.Fatal("no fault events recorded in trace")
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	g, sched, tgt := dpMapping(t, 10, 4)
	mk := func(seed int64) []trace.Event {
		in, err := fault.New(fault.Config{Seed: seed, Rate: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		ev, _ := run(t, g, sched, tgt, in)
		return ev
	}
	if reflect.DeepEqual(mk(1), mk(2)) {
		t.Fatal("seeds 1 and 2 produced identical faulted traces")
	}
}

func TestResetReplaysFaultSchedule(t *testing.T) {
	g, sched, tgt := dpMapping(t, 8, 4)
	in, err := fault.New(fault.Config{Seed: 13, Rate: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	m, err := MachineFor(tgt, in, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g, sched, tgt, m); err != nil {
		t.Fatal(err)
	}
	first := append([]trace.Event(nil), tr.Events()...)
	m.Reset()
	if _, err := Run(g, sched, tgt, m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, tr.Events()) {
		t.Fatal("Reset did not replay the identical faulted trace")
	}
}

func TestRunValidation(t *testing.T) {
	g, sched, tgt := dpMapping(t, 6, 4)
	m, err := MachineFor(tgt, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g, sched[:len(sched)-1], tgt, m); err == nil {
		t.Error("short schedule accepted")
	}
	bad := append(fm.Schedule(nil), sched...)
	bad[0] = fm.Assignment{Place: geom.Pt(-1, 0), Time: 0}
	if _, err := Run(g, bad, tgt, m); err == nil {
		t.Error("off-grid placement accepted")
	}
	bad[0] = fm.Assignment{Place: geom.Pt(0, 0), Time: -5}
	if _, err := Run(g, bad, tgt, m); err == nil {
		t.Error("negative time accepted")
	}
}
