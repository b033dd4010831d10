package experiments

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/fm"
	"repro/internal/geom"
	"repro/internal/machine"
	"repro/internal/replay"
	"repro/internal/stats"
	"repro/internal/tech"
)

// E19 measures graceful degradation: the paper's F&M argument is that
// explicit mappings make costs *predictable*, so E19 asks how far that
// prediction survives a non-ideal machine. Three mappings of the same
// 16x16 DP recurrence (the paper's anti-diagonal, a row-blocked
// placement, and the serial projection) are replayed on the machine
// simulator under a swept deterministic fault rate (node stalls, link
// spikes, dropped-then-retried flits), and the makespan inflation is
// reported next to each mapping's edge-slack profile — the margin the
// schedule has before a CausalityError would fire.
func E19() Result {
	const n, p = 16, 4
	g, dom, err := fm.Recurrence{
		Name: "dp",
		Dims: []int{n, n},
		Deps: [][]int{{1, 1}, {1, 0}, {0, 1}},
		Op:   tech.OpAdd,
		Bits: 32,
	}.Materialize()
	if err != nil {
		return failure("E19", err)
	}
	tgt := fm.DefaultTarget(p, 1)
	tgt.Grid.PitchMM = 0.1
	tgt.MemWordsPerNode = 1 << 20

	stride, err := fm.MinAntiDiagonalStrideChecked(tgt, tech.OpAdd, 32, n, p)
	if err != nil {
		return failure("E19", err)
	}
	antidiag, err := fm.AntiDiagonalScheduleChecked(dom, p, stride, geom.Pt(0, 0))
	if err != nil {
		return failure("E19", err)
	}
	blockedPlace := make([]geom.Point, g.NumNodes())
	idx := make([]int, 2)
	for nd := range blockedPlace {
		dom.Index(fm.NodeID(nd), idx)
		blockedPlace[nd] = geom.Pt(idx[0]*p/n, 0)
	}
	mappings := []struct {
		name  string
		sched fm.Schedule
	}{
		{"antidiag", antidiag},
		{"blocked", fm.ASAPSchedule(g, blockedPlace, tgt)},
		{"serial", fm.SerialSchedule(g, tgt, geom.Pt(0, 0))},
	}

	t := stats.NewTable(
		fmt.Sprintf("E19: fault-rate sweep of the %dx%d DP recurrence on %d processors", n, n, p),
		"mapping", "min slack", "rate", "makespan ps", "inflation", "faults", "retries")
	rates := []float64{0.02, 0.05, 0.10}
	pass := true
	replayOn := func(sched fm.Schedule, inj *fault.Injector) (machine.Metrics, error) {
		m, err := replay.MachineFor(tgt, inj, nil)
		if err != nil {
			return machine.Metrics{}, err
		}
		return replay.Run(g, sched, tgt, m)
	}
	for _, mp := range mappings {
		if err := fm.Check(g, mp.sched, tgt); err != nil {
			return failure("E19", fmt.Errorf("%s mapping illegal: %w", mp.name, err))
		}
		edges, err := fm.SlackAnalysis(g, mp.sched, tgt)
		if err != nil {
			return failure("E19", err)
		}
		minSlack := fm.SummarizeSlack(edges).Min

		base, err := replayOn(mp.sched, nil)
		if err != nil {
			return failure("E19", err)
		}
		// Rate 0 must reproduce the fault-free executor bit for bit.
		zeroInj, err := fault.New(fault.Config{Seed: 1, Rate: 0})
		if err != nil {
			return failure("E19", err)
		}
		zero, err := replayOn(mp.sched, zeroInj)
		if err != nil {
			return failure("E19", err)
		}
		exact := zero.Makespan == base.Makespan && zero.TotalEnergy == base.TotalEnergy
		pass = pass && exact
		t.AddRow(mp.name, minSlack, "0 (=ideal)", fmt.Sprintf("%.0f", base.Makespan),
			verdict(exact), 0, 0)

		for _, rate := range rates {
			inj, err := fault.New(fault.Config{Seed: 1, Rate: rate})
			if err != nil {
				return failure("E19", err)
			}
			got, err := replayOn(mp.sched, inj)
			if err != nil {
				return failure("E19", err)
			}
			infl := got.Makespan / base.Makespan
			fs := got.Faults
			pass = pass && infl >= 1 && fs.Events() > 0
			t.AddRow(mp.name, minSlack, fmt.Sprintf("%.2f", rate),
				fmt.Sprintf("%.0f", got.Makespan), fmt.Sprintf("%.3fx", infl),
				fs.Events(), fs.Retries)
		}
	}
	t.AddNote("same (seed, rate) replays the identical faulted trace; rate 0 is bit-for-bit the ideal run")
	t.AddNote("min slack counts the cycles of injected delay the tightest producer→consumer edge absorbs before causality breaks")

	return Result{
		ID:    "E19",
		Claim: "explicit mappings degrade gracefully and predictably under injected machine faults",
		Table: t,
		Pass:  pass,
		Notes: []string{
			"beyond-paper extension: the paper's cost predictability argument stress-tested on a non-ideal machine",
		},
	}
}
