package main

import (
	"fmt"

	"repro/internal/fm"
	"repro/internal/geom"
	"repro/internal/serve"
	"repro/internal/tech"
)

// The wire-to-fm translation, rebuilt here from fm's public constructors
// so the checker prices every request apart from the serving stack: if
// mapd built a different graph, target or schedule than the wire
// documents, its answer stops matching these.

var opClasses = map[string]tech.OpClass{
	"": tech.OpAdd, "add": tech.OpAdd, "mul": tech.OpMul,
	"cmp": tech.OpCmp, "logic": tech.OpLogic, "fma": tech.OpFMA,
}

// recurrence turns a wire recurrence into the fm one, defaults applied.
func recurrence(rs serve.RecurrenceSpec) (fm.Recurrence, error) {
	op, ok := opClasses[rs.Op]
	if !ok {
		return fm.Recurrence{}, fmt.Errorf("unknown op %q", rs.Op)
	}
	bits := rs.Bits
	if bits == 0 {
		bits = 32
	}
	name := rs.Name
	if name == "" {
		name = "recurrence"
	}
	return fm.Recurrence{Name: name, Dims: rs.Dims, Deps: rs.Deps, Op: op, Bits: bits}, nil
}

func materialize(rs serve.RecurrenceSpec) (*fm.Graph, *fm.Domain, error) {
	r, err := recurrence(rs)
	if err != nil {
		return nil, nil, err
	}
	return r.Materialize()
}

func target(ts serve.TargetSpec) (fm.Target, error) {
	h := ts.Height
	if h == 0 {
		h = 1
	}
	if ts.Width <= 0 || h <= 0 {
		return fm.Target{}, fmt.Errorf("invalid grid %dx%d", ts.Width, h)
	}
	tgt := fm.DefaultTarget(ts.Width, h)
	if ts.PitchMM > 0 {
		tgt.Grid.PitchMM = ts.PitchMM
	}
	if ts.MemWordsPerNode > 0 {
		tgt.MemWordsPerNode = ts.MemWordsPerNode
	}
	return tgt, tgt.Validate()
}

// antiDiagonalStride is the stride a schedule spec asks for: its own, or
// the minimum legal one when it leaves the field zero.
func antiDiagonalStride(ss serve.ScheduleSpec, g *fm.Graph, dom *fm.Domain, tgt fm.Target) (int64, error) {
	if ss.Stride != 0 {
		return ss.Stride, nil
	}
	out := g.Outputs()[0]
	return fm.MinAntiDiagonalStrideChecked(tgt, g.Op(out), g.Bits(out), dom.Dims()[1], specP(ss, tgt))
}

func specP(ss serve.ScheduleSpec, tgt fm.Target) int {
	if ss.P == 0 {
		return tgt.Grid.Width
	}
	return ss.P
}

func buildSchedule(ss serve.ScheduleSpec, g *fm.Graph, dom *fm.Domain, tgt fm.Target) (fm.Schedule, error) {
	p := specP(ss, tgt)
	switch ss.Kind {
	case "serial":
		return fm.SerialSchedule(g, tgt, geom.Pt(0, 0)), nil
	case "list":
		return fm.ListSchedule(g, tgt), nil
	case "antidiagonal":
		stride, err := antiDiagonalStride(ss, g, dom, tgt)
		if err != nil {
			return nil, err
		}
		return fm.AntiDiagonalScheduleChecked(dom, p, stride, geom.Pt(0, 0))
	case "affine":
		return fm.ScheduleByIndex(dom, func(idx []int) fm.Assignment {
			return fm.Assignment{
				Place: geom.Pt(((ss.A1*idx[0]+ss.A2*idx[1])%p+p)%p, 0),
				Time:  ss.T1*int64(idx[0]) + ss.T2*int64(idx[1]),
			}
		}), nil
	default:
		return nil, fmt.Errorf("unknown schedule kind %q", ss.Kind)
	}
}

func buildSchedules(specs []serve.ScheduleSpec, g *fm.Graph, dom *fm.Domain, tgt fm.Target) ([]fm.Schedule, error) {
	out := make([]fm.Schedule, len(specs))
	for i, ss := range specs {
		s, err := buildSchedule(ss, g, dom, tgt)
		if err != nil {
			return nil, fmt.Errorf("schedule %d: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}
