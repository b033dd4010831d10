package noc

import (
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/tech"
)

func TestLinkUtilizationCountsTrafficAndQueuing(t *testing.T) {
	n := testNet(t, CutThrough)
	// Two messages at t=0 share the (0,0)->(1,0) link: the second queues.
	n.Send(0, geom.Pt(0, 0), geom.Pt(2, 0), 32)
	n.Send(0, geom.Pt(0, 0), geom.Pt(3, 0), 32)

	loads := n.LinkUtilization()
	if len(loads) == 0 {
		t.Fatal("no link loads recorded")
	}
	var first *LinkLoad
	var queued float64
	for i := range loads {
		l := &loads[i]
		if l.From == geom.Pt(0, 0) && l.To == geom.Pt(1, 0) {
			first = l
		}
		queued += l.QueuedPS
		if l.Bits <= 0 || l.Traversals <= 0 {
			t.Fatalf("traversed link with empty load: %+v", l)
		}
	}
	if first == nil {
		t.Fatalf("shared first link missing from %+v", loads)
	}
	if first.Traversals != 2 || first.Bits != 64 {
		t.Fatalf("shared link carried %d traversals / %d bits, want 2 / 64", first.Traversals, first.Bits)
	}
	if queued <= 0 {
		t.Fatal("two simultaneous messages on one link recorded no queued time")
	}
	// Deterministic coordinate order.
	for i := 1; i < len(loads); i++ {
		a, b := loads[i-1], loads[i]
		if b.From.Y < a.From.Y || (b.From.Y == a.From.Y && b.From.X < a.From.X) {
			t.Fatalf("link loads out of order at %d: %+v then %+v", i, a, b)
		}
	}
}

func TestLinkHeatmapDeterministicAndShaped(t *testing.T) {
	render := func() string {
		n := testNet(t, CutThrough)
		n.Send(0, geom.Pt(0, 0), geom.Pt(7, 0), 64)
		n.Send(100, geom.Pt(0, 0), geom.Pt(2, 0), 32)
		n.Send(200, geom.Pt(3, 3), geom.Pt(3, 5), 32)
		return n.RenderLinkHeatmap()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("heatmap not deterministic:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "9") {
		t.Fatalf("hottest link not rendered as 9:\n%s", a)
	}
	lines := strings.Split(strings.TrimRight(a, "\n"), "\n")
	// Header + 8 node rows + 7 vertical-link rows.
	if len(lines) != 1+8+7 {
		t.Fatalf("heatmap has %d lines, want 16:\n%s", len(lines), a)
	}
	grid := geom.NewGrid(8, 8, 1.0)
	_ = grid
	row := lines[1] // first node row: traffic 0,0 -> along row
	if !strings.HasPrefix(row, "+ 9 +") {
		t.Fatalf("hottest first-row link not drawn next to origin: %q", row)
	}
}

func TestLinkHeatmapEmpty(t *testing.T) {
	n := testNet(t, CutThrough)
	if got := n.RenderLinkHeatmap(); got != "(no link traffic)\n" {
		t.Fatalf("empty network heatmap = %q", got)
	}
}

func TestLinkHeatmapTorusWrapListed(t *testing.T) {
	n := mustNew(t, Config{
		Grid:     geom.NewGrid(4, 4, 1.0),
		Tech:     tech.N5(),
		Topology: Torus,
	})
	// (0,0) -> (3,0) routes over the wrap link on a torus (1 hop back).
	n.Send(0, geom.Pt(0, 0), geom.Pt(3, 0), 32)
	out := n.RenderLinkHeatmap()
	if !strings.Contains(out, "wrap ") {
		t.Fatalf("torus wrap traffic not listed:\n%s", out)
	}
}

func TestNocObsMatchesStats(t *testing.T) {
	r := obs.New()
	n := mustNew(t, Config{
		Grid: geom.NewGrid(8, 8, 1.0),
		Tech: tech.N5(),
		Obs:  r,
	})
	n.Send(0, geom.Pt(0, 0), geom.Pt(2, 0), 32)
	n.Send(0, geom.Pt(0, 0), geom.Pt(3, 0), 32)
	snap := r.Snapshot()
	if got := snap.Counters["noc.messages"]; got != 2 {
		t.Fatalf("noc.messages = %d, want 2", got)
	}
	wantTrav := int64(0)
	var wantQueued float64
	for _, l := range n.LinkUtilization() {
		wantTrav += l.Traversals
		wantQueued += l.QueuedPS
	}
	if got := snap.Counters["noc.link.traversals"]; got != wantTrav {
		t.Fatalf("noc.link.traversals = %d, want %d", got, wantTrav)
	}
	if got := snap.Gauges["noc.link.queued_ps"]; got != wantQueued {
		t.Fatalf("noc.link.queued_ps = %g, want %g", got, wantQueued)
	}
	if got, want := snap.Gauges["noc.energy_fj"], n.Stats().Energy; got != want {
		t.Fatalf("noc.energy_fj = %g, want %g", got, want)
	}
}

func TestObsDoesNotChangeArrivals(t *testing.T) {
	run := func(r *obs.Registry) (float64, float64) {
		n := mustNew(t, Config{
			Grid: geom.NewGrid(8, 8, 1.0),
			Tech: tech.N5(),
			Obs:  r,
		})
		a1, e1 := n.Send(0, geom.Pt(0, 0), geom.Pt(5, 3), 128)
		a2, e2 := n.Send(10, geom.Pt(0, 0), geom.Pt(5, 3), 128)
		return a1 + a2, e1 + e2
	}
	aOff, eOff := run(nil)
	aOn, eOn := run(obs.New())
	if aOff != aOn || eOff != eOn {
		t.Fatalf("observability changed results: (%g, %g) vs (%g, %g)", aOff, eOff, aOn, eOn)
	}
}
