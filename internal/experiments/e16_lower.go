package experiments

import (
	"strings"

	"repro/internal/algorithms/editdist"
	"repro/internal/fm"
	"repro/internal/geom"
	"repro/internal/lower"
	"repro/internal/stats"
	"repro/internal/tech"
)

// E16 reproduces "an algorithm expressed in this model also directly
// specifies a domain-specific architecture. Given a definition and
// mapping, lowering the specification to hardware (e.g., in Verilog or
// Chisel) is a mechanical process": the paper's anti-diagonal
// edit-distance mapping is lowered mechanically and must come out as a
// P-PE linear systolic array with nearest-neighbour channels and
// add-class ALUs, while the serial projection lowers to a single PE with
// no channels.
func E16() Result {
	const n, p = 16, 4
	r := make([]byte, n)
	q := make([]byte, n)
	g, dom, err := editdist.Recurrence(r, q).Materialize()
	if err != nil {
		return failure("E16", err)
	}
	tgt := fm.DefaultTarget(p, 1)
	tgt.MemWordsPerNode = 1 << 20
	stride, err := fm.MinAntiDiagonalStrideChecked(tgt, tech.OpAdd, 32, n, p)
	if err != nil {
		return failure("E16", err)
	}
	antidiag, err := fm.AntiDiagonalScheduleChecked(dom, p, stride, geom.Pt(0, 0))
	if err != nil {
		return failure("E16", err)
	}
	systolic, err := lower.Lower(g, antidiag, tgt)
	if err != nil {
		return failure("E16", err)
	}
	serial, err := lower.Lower(g, fm.SerialSchedule(g, tgt, geom.Pt(0, 0)), tgt)
	if err != nil {
		return failure("E16", err)
	}

	t := stats.NewTable("E16: mechanical lowering of the edit-distance mapping (n=16)",
		"mapping", "PEs", "channels", "linear array", "ALU set", "regs/PE (max)")
	describe := func(a *lower.Architecture) (alus string, maxRegs int) {
		set := map[string]bool{}
		for _, pe := range a.PEs {
			for _, c := range pe.ALUs() {
				set[c.String()] = true
			}
			if pe.RegisterWords > maxRegs {
				maxRegs = pe.RegisterWords
			}
		}
		var names []string
		for s := range set {
			names = append(names, s)
		}
		if len(names) == 0 {
			return "-", maxRegs
		}
		return strings.Join(names, ","), maxRegs
	}
	sAlus, sRegs := describe(systolic)
	t.AddRow("anti-diagonal P=4", len(systolic.PEs), len(systolic.Channels),
		verdict(systolic.IsLinearArray()), sAlus, sRegs)
	eAlus, eRegs := describe(serial)
	t.AddRow("serial projection", len(serial.PEs), len(serial.Channels),
		verdict(serial.IsLinearArray()), eAlus, eRegs)

	v := systolic.Verilog()
	okVerilog := strings.Contains(v, "module pe_add(") &&
		strings.Contains(v, "module top(") &&
		strings.Count(v, "pe_add pe_") == p
	t.AddNote("generated netlist: %d bytes of structural verilog, one pe_add module, %d instances", len(v), p)

	pass := len(systolic.PEs) == p &&
		systolic.IsLinearArray() &&
		sAlus == "add" &&
		len(serial.PEs) == 1 &&
		len(serial.Channels) == 0 &&
		okVerilog

	return Result{
		ID:    "E16",
		Claim: "a definition plus a mapping mechanically specifies a domain-specific architecture: the paper's mapping lowers to a linear systolic array",
		Table: t,
		Pass:  pass,
	}
}
