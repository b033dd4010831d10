package noc

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

// drive replays a fixed traffic pattern that crosses enough distinct
// links (including contended ones) that map-ordered iteration in the
// report paths would show up as run-to-run diffs.
func drive(n *Network) {
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(7, 7), geom.Pt(3, 1), geom.Pt(1, 6),
		geom.Pt(5, 5), geom.Pt(2, 2), geom.Pt(6, 0), geom.Pt(0, 4),
	}
	t0 := 0.0
	for i, src := range pts {
		for j, dst := range pts {
			if src == dst {
				continue
			}
			n.Send(t0, src, dst, 64*(1+(i+j)%3))
		}
		t0 += 50
	}
}

// TestLinkReportsDeterministic pins the collect-then-sort idiom in the
// link-traffic report paths (the runtime counterpart of the determinism
// analyzer's map-range rule): two networks fed identical traffic must
// render byte-identical heatmaps and identical utilization listings,
// and re-rendering the same network must be stable.
func TestLinkReportsDeterministic(t *testing.T) {
	a := testNet(t, CutThrough)
	b := testNet(t, CutThrough)
	drive(a)
	drive(b)

	if first, second := a.RenderLinkHeatmap(), a.RenderLinkHeatmap(); first != second {
		t.Fatalf("re-rendering the same heatmap differs:\n%s\n----\n%s", first, second)
	}
	if ha, hb := a.RenderLinkHeatmap(), b.RenderLinkHeatmap(); ha != hb {
		t.Fatalf("identical traffic rendered different heatmaps:\n%s\n----\n%s", ha, hb)
	}

	ua, ub := a.LinkUtilization(), b.LinkUtilization()
	if len(ua) != len(ub) {
		t.Fatalf("utilization lengths differ: %d vs %d", len(ua), len(ub))
	}
	for i := range ua {
		if ua[i] != ub[i] {
			t.Fatalf("utilization[%d] differs: %+v vs %+v", i, ua[i], ub[i])
		}
	}
}

func TestNewRejectsBadMode(t *testing.T) {
	_, err := New(Config{
		Grid: geom.NewGrid(4, 4, 1.0),
		Tech: tech.N5(),
		Mode: Mode(99),
	})
	if err == nil {
		t.Fatal("New accepted an unknown switching mode")
	}
}
