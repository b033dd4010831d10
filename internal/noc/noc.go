// Package noc simulates an on-chip interconnection network: a 2-D mesh
// with dimension-ordered (XY) routing, per-link serialization, and
// contention, in either store-and-forward or cut-through switching mode.
//
// The panel paper's cost argument rests on wires: 80 fJ/bit-mm and
// 800 ps/mm at 5 nm. This package turns those constants into message
// latencies and energies on a concrete topology, so the F&M cost
// evaluator charges mapped communication what the silicon would. The
// switching-mode choice is ablation A2 in DESIGN.md: cut-through (the
// lineage of wormhole routing, which Dally's Torus Routing Chip
// pioneered) pays serialization once, store-and-forward pays it per hop.
package noc

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/tech"
	"repro/internal/trace"
)

// Mode selects the switching discipline.
type Mode int

const (
	// CutThrough forwards flits as soon as the header has been routed;
	// latency = perHop*hops + serialization.
	CutThrough Mode = iota
	// StoreAndForward buffers the whole packet at every hop;
	// latency = hops * (perHop + serialization).
	StoreAndForward
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case CutThrough:
		return "cut-through"
	case StoreAndForward:
		return "store-and-forward"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Topology selects the link structure.
type Topology int

const (
	// Mesh has links only between grid neighbours.
	Mesh Topology = iota
	// Torus adds wrap-around links in both dimensions, halving the worst
	// and average routed distance — the topology of Dally's Torus Routing
	// Chip. Physically a folded torus keeps all links at the grid pitch,
	// which is how wrap links are priced here.
	Torus
)

// String implements fmt.Stringer.
func (t Topology) String() string {
	switch t {
	case Mesh:
		return "mesh"
	case Torus:
		return "torus"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// Config parameterizes a network.
type Config struct {
	// Grid is the node array and physical pitch.
	Grid geom.Grid
	// Topology selects mesh (default) or torus links.
	Topology Topology
	// Tech supplies wire energy/delay constants.
	Tech tech.Params
	// LinkWidthBits is the flit width: bits transferred per link per flit
	// cycle. Defaults to 32.
	LinkWidthBits int
	// RouterDelayPS is the per-hop router pipeline latency added to the
	// wire flight time. Defaults to 100 ps.
	RouterDelayPS float64
	// RouterEnergyPerBit is switching energy per bit per hop, fJ.
	// Defaults to 8 (a tenth of a millimetre-equivalent of wire at 5 nm).
	RouterEnergyPerBit float64
	// Mode selects the switching discipline.
	Mode Mode
	// Trace, if non-nil, receives one wire event per message.
	Trace *trace.Trace
	// Faults, if non-nil and enabled, injects deterministic link-delay
	// spikes and dropped-then-retried flits into Send. Injection is keyed
	// per directed link, so the faulted trace is reproducible from the
	// injector's (seed, rate) alone.
	Faults *fault.Injector
	// Obs, if non-nil, receives aggregate traffic metrics under "noc.*"
	// names (messages, link traversals, queued time, retries, energy).
	// Per-link detail stays in LinkUtilization, not the registry, so the
	// metric namespace stays bounded on large grids.
	Obs *obs.Registry
}

// withDefaults fills zero fields; a NEGATIVE router delay or energy means
// "explicitly zero" (an ideal router), since zero itself requests the
// default.
func (c Config) withDefaults() Config {
	if c.LinkWidthBits == 0 {
		c.LinkWidthBits = 32
	}
	if c.RouterDelayPS == 0 {
		c.RouterDelayPS = 100
	} else if c.RouterDelayPS < 0 {
		c.RouterDelayPS = 0
	}
	if c.RouterEnergyPerBit == 0 {
		c.RouterEnergyPerBit = 8
	} else if c.RouterEnergyPerBit < 0 {
		c.RouterEnergyPerBit = 0
	}
	return c
}

// link is a directed edge between adjacent grid nodes.
type link struct {
	from, to geom.Point
}

// linkStat accumulates per-directed-link traffic: payload volume,
// message traversals, time spent queued behind the link's previous
// occupant, and fault retries charged to the link.
type linkStat struct {
	bits       int64
	traversals int64
	queuedPS   float64
	retries    int64
}

// Network is a mesh NoC with per-link occupancy tracking. It is not safe
// for concurrent use; the simulators are single-threaded by design so
// results are deterministic.
type Network struct {
	cfg Config

	busyUntil map[link]float64
	bitHops   int64
	messages  int64
	energy    float64
	// linkStats tracks traffic per directed link for hotspot analysis
	// and the link-utilization heatmap.
	linkStats map[link]*linkStat

	obsMessages   *obs.Counter
	obsTraversals *obs.Counter
	obsRetries    *obs.Counter
	obsQueuedPS   *obs.Gauge
	obsEnergy     *obs.Gauge
}

// New returns a network over the configured grid, validating
// the technology parameters and switching mode up front so every later
// method can assume a well-formed configuration.
func New(cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Tech.Validate(); err != nil {
		return nil, fmt.Errorf("noc: %w", err)
	}
	if cfg.Mode != CutThrough && cfg.Mode != StoreAndForward {
		return nil, fmt.Errorf("noc: unknown mode %d", int(cfg.Mode))
	}
	n := &Network{
		cfg:       cfg,
		busyUntil: make(map[link]float64),
		linkStats: make(map[link]*linkStat),
	}
	if cfg.Obs.Enabled() {
		n.obsMessages = cfg.Obs.Counter("noc.messages")
		n.obsTraversals = cfg.Obs.Counter("noc.link.traversals")
		n.obsRetries = cfg.Obs.Counter("noc.link.retries")
		n.obsQueuedPS = cfg.Obs.Gauge("noc.link.queued_ps")
		n.obsEnergy = cfg.Obs.Gauge("noc.energy_fj")
	}
	return n, nil
}

// stat returns the mutable stat record for a link, creating it on first
// traversal.
func (n *Network) stat(l link) *linkStat {
	s := n.linkStats[l]
	if s == nil {
		s = &linkStat{}
		n.linkStats[l] = s
	}
	return s
}

// Config returns the network's (defaulted) configuration.
func (n *Network) Config() Config { return n.cfg }

// Route returns the XY (X first, then Y) dimension-ordered route from src
// to dst as a sequence of adjacent points, including both endpoints. On a
// torus each dimension routes in whichever direction is shorter, crossing
// the wrap link when that wins.
func (n *Network) Route(src, dst geom.Point) []geom.Point {
	n.check(src)
	n.check(dst)
	route := []geom.Point{src}
	cur := src
	stepX := n.dimStep(cur.X, dst.X, n.cfg.Grid.Width)
	for cur.X != dst.X {
		cur.X = wrapAdd(cur.X, stepX, n.cfg.Grid.Width)
		route = append(route, cur)
	}
	stepY := n.dimStep(cur.Y, dst.Y, n.cfg.Grid.Height)
	for cur.Y != dst.Y {
		cur.Y = wrapAdd(cur.Y, stepY, n.cfg.Grid.Height)
		route = append(route, cur)
	}
	return route
}

// dimStep picks +1 or -1 for one dimension: toward the destination on a
// mesh, the shorter way round on a torus (ties go forward).
func (n *Network) dimStep(cur, dst, size int) int {
	if cur == dst {
		return 1
	}
	if n.cfg.Topology == Mesh {
		if cur < dst {
			return 1
		}
		return -1
	}
	forward := ((dst - cur) + size) % size
	if forward <= size-forward {
		return 1
	}
	return -1
}

func wrapAdd(x, step, size int) int {
	return ((x+step)%size + size) % size
}

// Distance returns the routed hop count from src to dst under the
// configured topology.
func (n *Network) Distance(src, dst geom.Point) int {
	if n.cfg.Topology == Mesh {
		return src.Manhattan(dst)
	}
	dx := abs(src.X - dst.X)
	if w := n.cfg.Grid.Width - dx; w < dx {
		dx = w
	}
	dy := abs(src.Y - dst.Y)
	if h := n.cfg.Grid.Height - dy; h < dy {
		dy = h
	}
	return dx + dy
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func (n *Network) check(p geom.Point) {
	if !n.cfg.Grid.Contains(p) {
		panic(fmt.Sprintf("noc: point %v outside grid %dx%d", p, n.cfg.Grid.Width, n.cfg.Grid.Height))
	}
}

// flits returns the number of link-width flits needed for a payload.
func (n *Network) flits(bits int) int {
	if bits <= 0 {
		panic(fmt.Sprintf("noc: invalid payload %d bits", bits))
	}
	return (bits + n.cfg.LinkWidthBits - 1) / n.cfg.LinkWidthBits
}

// hopLatency is the time for one flit to cross one link: wire flight over
// one pitch plus the router pipeline.
func (n *Network) hopLatency() float64 {
	return n.cfg.Tech.WireDelay(n.cfg.Grid.PitchMM) + n.cfg.RouterDelayPS
}

// UncontendedLatency returns the latency of a bits-wide message over the
// given hop count with an idle network, under the configured mode.
func (n *Network) UncontendedLatency(hops, bits int) float64 {
	if hops == 0 {
		return 0
	}
	per := n.hopLatency()
	ser := float64(n.flits(bits)-1) * per // extra flits pipeline behind the header
	switch n.cfg.Mode {
	case CutThrough:
		return float64(hops)*per + ser
	case StoreAndForward:
		return float64(hops) * (per + ser)
	default:
		//lint:allow panic(unreachable: New validates Mode and Network fields are unexported)
		panic(fmt.Sprintf("noc: unknown mode %d", int(n.cfg.Mode)))
	}
}

// MessageEnergy returns the energy of moving a bits-wide message over the
// given hop count: wire energy over the routed distance plus router
// switching energy at each hop.
func (n *Network) MessageEnergy(hops, bits int) float64 {
	mm := float64(hops) * n.cfg.Grid.PitchMM
	return n.cfg.Tech.WireEnergy(bits, mm) + n.cfg.RouterEnergyPerBit*float64(bits)*float64(hops)
}

// Send injects a message at time t0 and returns its arrival time at dst
// and the energy it consumed. Contention is modelled per directed link:
// a message occupies each link on its route for its serialization time,
// and waits for the link to free before using it. src == dst is legal and
// free (the value never leaves the node).
func (n *Network) Send(t0 float64, src, dst geom.Point, bits int) (arrival, energy float64) {
	n.check(src)
	n.check(dst)
	if t0 < 0 {
		//lint:allow panic(argument-contract guard, like stdlib slice bounds: callers own the clock and never go negative)
		panic(fmt.Sprintf("noc: negative injection time %g", t0))
	}
	if src == dst {
		return t0, 0
	}
	route := n.Route(src, dst)
	hops := len(route) - 1
	flits := n.flits(bits)
	per := n.hopLatency()
	occupancy := float64(flits) * per

	// Header time advances hop by hop, stalling on busy links. Occupancy
	// models serialization: a link is held for flits*per once the header
	// acquires it.
	var faultEnergy float64
	t := t0
	for i := 0; i < hops; i++ {
		l := link{route[i], route[i+1]}
		ls := n.stat(l)
		if b := n.busyUntil[l]; b > t {
			ls.queuedPS += b - t
			n.obsQueuedPS.Add(b - t)
			t = b
		}
		hold := occupancy
		var step float64
		switch n.cfg.Mode {
		case CutThrough:
			step = per
		case StoreAndForward:
			step = per + float64(flits-1)*per
		}
		if n.cfg.Faults.Enabled() {
			from, to := n.cfg.Grid.ID(l.from), n.cfg.Grid.ID(l.to)
			if spike := n.cfg.Faults.Spike(from, to); spike > 0 {
				// A delay spike slows this hop's traversal; the link is
				// held correspondingly longer.
				step += spike
				hold += spike
				n.recordFault(t, spike, l, "spike")
			}
			if retries, backoff := n.cfg.Faults.Drop(from, to); retries > 0 {
				// Dropped flits re-serialize on the link after backoff:
				// the hop stalls for the backoff plus one full
				// retransmission per retry, the link stays busy for the
				// retransmissions, and the retransmitted bits pay this
				// hop's wire+router energy again.
				pen := backoff + float64(retries)*occupancy
				step += pen
				hold += float64(retries) * occupancy
				faultEnergy += float64(retries) * n.MessageEnergy(1, bits)
				ls.retries += int64(retries)
				n.obsRetries.Add(int64(retries))
				n.recordFault(t, pen, l, "drop")
			}
		}
		n.busyUntil[l] = t + hold
		ls.bits += int64(bits)
		ls.traversals++
		n.obsTraversals.Inc()
		t += step
	}
	if n.cfg.Mode == CutThrough {
		// Tail flits pipeline behind the header.
		t += float64(flits-1) * per
	}

	energy = n.MessageEnergy(hops, bits) + faultEnergy
	n.energy += energy
	n.bitHops += int64(bits) * int64(hops)
	n.messages++
	n.obsMessages.Inc()
	n.obsEnergy.Add(energy)
	if n.cfg.Trace.Enabled() {
		n.cfg.Trace.Add(trace.Event{
			Kind: trace.KindWire, Start: t0, End: t,
			Place: src, Dst: dst, Energy: energy, Bits: bits,
		})
	}
	return t, energy
}

// recordFault emits one injected-fault event on a link: ps picoseconds
// of spike or retry delay starting when the header reached the link.
func (n *Network) recordFault(start, ps float64, l link, tag string) {
	if n.cfg.Trace.Enabled() {
		n.cfg.Trace.Add(trace.Event{
			Kind: trace.KindFault, Start: start, End: start + ps,
			Place: l.from, Dst: l.to, Tag: tag,
		})
	}
}

// Stats summarizes traffic since the last Reset.
type Stats struct {
	// Messages is the number of Send calls that moved data.
	Messages int64
	// BitHops is total payload bits weighted by hops travelled.
	BitHops int64
	// Energy is total network energy, fJ.
	Energy float64
	// MaxLinkBits is the payload volume on the hottest link.
	MaxLinkBits int64
	// BusiestLink identifies that link (zero value if no traffic).
	BusiestLinkFrom, BusiestLinkTo geom.Point
}

// Stats returns traffic statistics. Ties on the hottest link break
// deterministically by coordinate order.
func (n *Network) Stats() Stats {
	s := Stats{Messages: n.messages, BitHops: n.bitHops, Energy: n.energy}
	for _, l := range n.sortedLinks() {
		if b := n.linkStats[l].bits; b > s.MaxLinkBits {
			s.MaxLinkBits = b
			s.BusiestLinkFrom, s.BusiestLinkTo = l.from, l.to
		}
	}
	return s
}

// sortedLinks returns every traversed link in coordinate order (from.Y,
// from.X, to.Y, to.X), the deterministic iteration order for all
// per-link reports.
func (n *Network) sortedLinks() []link {
	links := make([]link, 0, len(n.linkStats))
	for l := range n.linkStats {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool {
		a, b := links[i], links[j]
		if a.from != b.from {
			if a.from.Y != b.from.Y {
				return a.from.Y < b.from.Y
			}
			return a.from.X < b.from.X
		}
		if a.to.Y != b.to.Y {
			return a.to.Y < b.to.Y
		}
		return a.to.X < b.to.X
	})
	return links
}

// LinkLoad reports the traffic observed on one directed link.
type LinkLoad struct {
	// From and To are the link's endpoints (adjacent grid nodes, or a
	// wrap pair on a torus).
	From, To geom.Point
	// Bits is the payload volume that crossed the link.
	Bits int64
	// Traversals is the number of messages that crossed the link.
	Traversals int64
	// QueuedPS is the total time message headers waited for this link to
	// free — the contention the analytic cost model cannot see.
	QueuedPS float64
	// Retries counts flit retransmissions injected on this link.
	Retries int64
}

// LinkUtilization returns the per-directed-link traffic profile in
// deterministic coordinate order. Only traversed links appear.
func (n *Network) LinkUtilization() []LinkLoad {
	links := n.sortedLinks()
	out := make([]LinkLoad, 0, len(links))
	for _, l := range links {
		s := n.linkStats[l]
		out = append(out, LinkLoad{
			From: l.from, To: l.to,
			Bits: s.bits, Traversals: s.traversals,
			QueuedPS: s.queuedPS, Retries: s.retries,
		})
	}
	return out
}

// RenderLinkHeatmap draws the grid with one glyph per undirected link
// (both directions summed), normalized to the hottest link: '.' for an
// idle link, '1'..'9' for load rising to the maximum. Nodes are '+'.
// Torus wrap links are not adjacent in the drawing and are listed below
// the map instead. The heatmap is the spatial complement of the
// space-time diagram: Render shows *when* nodes were busy, this shows
// *where* the traffic concentrated.
func (n *Network) RenderLinkHeatmap() string {
	g := n.cfg.Grid
	// Sum both directions onto a canonical (lexicographically smaller
	// endpoint first) undirected link.
	undirected := make(map[link]int64)
	var wraps []string
	var maxBits int64
	for _, l := range n.sortedLinks() {
		s := n.linkStats[l]
		a, b := l.from, l.to
		if b.Y < a.Y || (b.Y == a.Y && b.X < a.X) {
			a, b = b, a
		}
		u := link{a, b}
		undirected[u] += s.bits
		if undirected[u] > maxBits {
			maxBits = undirected[u]
		}
	}
	if maxBits == 0 {
		return "(no link traffic)\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "link-utilization heatmap: hottest link carried %d bits\n", maxBits)
	glyph := func(a, b geom.Point) byte {
		bits, ok := undirected[link{a, b}]
		if !ok || bits == 0 {
			return '.'
		}
		d := 1 + int(8*bits/maxBits)
		if d > 9 {
			d = 9
		}
		return byte('0' + d)
	}
	for y := 0; y < g.Height; y++ {
		// Node row: nodes with horizontal-link glyphs between them.
		for x := 0; x < g.Width; x++ {
			if x > 0 {
				sb.WriteByte(' ')
				sb.WriteByte(glyph(geom.Pt(x-1, y), geom.Pt(x, y)))
				sb.WriteByte(' ')
			}
			sb.WriteByte('+')
		}
		sb.WriteByte('\n')
		// Vertical-link row between this node row and the next.
		if y < g.Height-1 {
			for x := 0; x < g.Width; x++ {
				if x > 0 {
					sb.WriteString("   ")
				}
				sb.WriteByte(glyph(geom.Pt(x, y), geom.Pt(x, y+1)))
			}
			sb.WriteByte('\n')
		}
	}
	// Non-adjacent (torus wrap) links cannot be drawn in place.
	for u, bits := range undirected {
		if u.from.Manhattan(u.to) != 1 && bits > 0 {
			wraps = append(wraps, fmt.Sprintf("wrap %v<->%v: %d bits", u.from, u.to, bits))
		}
	}
	sort.Strings(wraps)
	for _, w := range wraps {
		sb.WriteString(w)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Reset clears all link occupancy and statistics. A configured fault
// injector is reset too, so a re-run replays the identical fault
// schedule.
func (n *Network) Reset() {
	n.busyUntil = make(map[link]float64)
	n.linkStats = make(map[link]*linkStat)
	n.bitHops = 0
	n.messages = 0
	n.energy = 0
	n.cfg.Faults.Reset()
}
