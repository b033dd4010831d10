// Package repro reproduces the SPAA'21 panel paper "Architecture-Friendly
// Algorithms versus Algorithm-Friendly Architectures" (Blelloch, Dally,
// Martonosi, Vishkin, Yelick) as a working library: each panelist's model
// of parallel computation is implemented as an executable substrate, and
// every quantitative claim in the paper regenerates from them.
//
// This package is the facade: it re-exports the entry points a quickstart
// needs. The full APIs live in the internal packages:
//
//   - internal/fm        — the Function & Mapping model (Dally): dataflow
//     functions, space-time mappings, legality, explicit cost, search,
//     composition. The paper's primary contribution.
//   - internal/machine, internal/noc, internal/tech — the simulated
//     spatial machine the mappings are priced on (grid + mesh NoC + the
//     paper's 5 nm energy/delay constants).
//   - internal/workspan  — the fork-join work-span runtime (Blelloch) on
//     real goroutines, with parallel primitives and Brent-bound analyses.
//   - internal/pram      — the PRAM / XMT work-time simulator (Vishkin)
//     with the prefix-sum primitive and queue-free BFS.
//   - internal/cache     — the ideal-cache model and cache-oblivious
//     algorithms (Blelloch).
//   - internal/comm      — the distributed alpha-beta machine with
//     communication-avoiding matmul and collectives (Yelick).
//   - internal/experiments — one function per paper claim, each returning
//     a paper-vs-measured table (run them all with cmd/panelbench).
package repro

import (
	"repro/internal/experiments"
	"repro/internal/fm"
	"repro/internal/geom"
	"repro/internal/lower"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/tech"
	"repro/internal/verify"
	"repro/internal/workspan"
)

// Core F&M types, re-exported for quickstart use.
type (
	// Graph is an F&M function: a dataflow graph exposing all parallelism.
	Graph = fm.Graph
	// Builder constructs Graphs.
	Builder = fm.Builder
	// NodeID identifies a graph node.
	NodeID = fm.NodeID
	// Schedule is an F&M mapping: one space-time assignment per node.
	Schedule = fm.Schedule
	// Assignment places one element at (place, cycle).
	Assignment = fm.Assignment
	// Target is the machine model mappings are priced against.
	Target = fm.Target
	// Cost prices a mapped computation (cycles, energy, bit-hops, memory).
	Cost = fm.Cost
	// Point is a grid location.
	Point = geom.Point
	// Machine is the imperative grid-machine simulator.
	Machine = machine.Machine
	// MachineConfig parameterizes a Machine.
	MachineConfig = machine.Config
	// Pool is the fork-join work-stealing runtime.
	Pool = workspan.Pool
	// Ctx is a fork-join execution context.
	Ctx = workspan.Ctx
	// ExperimentResult is one paper-claim reproduction outcome.
	ExperimentResult = experiments.Result
	// Table is an aligned text table.
	Table = stats.Table
)

// Re-exported constructors and helpers.
var (
	// NewBuilder starts a new F&M function.
	NewBuilder = fm.NewBuilder
	// DefaultTarget returns a 5 nm w x h grid target at 1 mm pitch.
	DefaultTarget = fm.DefaultTarget
	// Check verifies a mapping's legality (causality, occupancy, storage).
	Check = fm.Check
	// Evaluate checks and prices a mapping.
	Evaluate = fm.Evaluate
	// SerialSchedule projects a function onto one node.
	SerialSchedule = fm.SerialSchedule
	// ListSchedule is the default mapper.
	ListSchedule = fm.ListSchedule
	// NewMachine builds a grid-machine simulator.
	NewMachine = machine.New
	// N5 returns the paper's 5 nm technology constants.
	N5 = tech.N5
	// NewPool starts a work-span worker pool.
	NewPool = workspan.NewPool
	// Pt is shorthand for a grid point.
	Pt = geom.Pt
	// Experiments returns the full paper-reproduction suite (E1..E18).
	Experiments = experiments.All
	// ASAPSchedule / ALAPScheduleChecked derive earliest/latest start
	// times for a fixed placement; Slack is their difference (the
	// critical path has none).
	ASAPSchedule        = fm.ASAPSchedule
	ALAPScheduleChecked = fm.ALAPScheduleChecked
	Slack               = fm.Slack
	// Recompute applies the paper's compute-at-multiple-points rule.
	Recompute = fm.Recompute
	// TrafficFrom attributes a mapping's bit-hops to chosen producers.
	TrafficFrom = fm.TrafficFrom
	// Lower mechanically derives the architecture a mapping specifies.
	Lower = lower.Lower
	// Refine replays a mapping operationally (full-stack verification).
	Refine = verify.Refine
)

// Work-span scheduling modes.
const (
	// WorkStealing is the per-worker-deque scheduler.
	WorkStealing = workspan.WorkStealing
	// CentralQueue is the shared-queue ablation.
	CentralQueue = workspan.CentralQueue
)
