package noc

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

// offeredLoad injects uniform-random messages, one per source node every
// gap picoseconds, in global time order (the link-occupancy model, like
// any event-driven simulation, assumes causally ordered injection), and
// returns the mean latency.
func offeredLoad(t *testing.T, mode Mode, msgs int, gap float64, seed int64) float64 {
	t.Helper()
	n := mustNew(t, Config{Grid: geom.NewGrid(8, 8, 1.0), Tech: tech.N5(), Mode: mode})
	rng := rand.New(rand.NewSource(seed))
	type msg struct {
		t0       float64
		src, dst geom.Point
	}
	nextInject := make(map[geom.Point]float64)
	var queue []msg
	for len(queue) < msgs {
		src := geom.Pt(rng.Intn(8), rng.Intn(8))
		dst := geom.Pt(rng.Intn(8), rng.Intn(8))
		if src == dst {
			continue
		}
		queue = append(queue, msg{t0: nextInject[src], src: src, dst: dst})
		nextInject[src] += gap
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i].t0 < queue[j].t0 })
	var total float64
	for _, m := range queue {
		arr, _ := n.Send(m.t0, m.src, m.dst, 128)
		total += arr - m.t0
	}
	return total / float64(len(queue))
}

// TestLatencyLoadCurve is the canonical interconnect validation: mean
// latency grows monotonically-ish as offered load rises, and explodes
// past saturation. (Dally's own research lineage — wormhole routing and
// virtual channels — exists to push this curve rightward.)
func TestLatencyLoadCurve(t *testing.T) {
	const msgs = 2000
	// Gap = time between injections per node; smaller gap = higher load.
	light := offeredLoad(t, CutThrough, msgs, 200_000, 1)
	medium := offeredLoad(t, CutThrough, msgs, 20_000, 1)
	heavy := offeredLoad(t, CutThrough, msgs, 2_000, 1)

	if light > medium || medium > heavy {
		t.Errorf("latency should rise with load: %.0f -> %.0f -> %.0f ps", light, medium, heavy)
	}
	if heavy < 2*light {
		t.Errorf("saturation should at least double latency: light %.0f vs heavy %.0f", light, heavy)
	}
	// Light load approaches the uncontended average: mean hop distance on
	// an 8x8 mesh is ~5.3 hops of ~900 ps plus 3 extra flit cycles.
	n := mustNew(t, Config{Grid: geom.NewGrid(8, 8, 1.0), Tech: tech.N5()})
	uncontended := n.UncontendedLatency(5, 128)
	if light > 2*uncontended {
		t.Errorf("light-load latency %.0f ps far above uncontended %.0f ps", light, uncontended)
	}
}

// TestStoreAndForwardSaturatesEarlier compares the switching modes under
// identical traffic: store-and-forward holds each link for the full
// packet per hop, so at every load level it is slower.
func TestStoreAndForwardSaturatesEarlier(t *testing.T) {
	const msgs = 1500
	for _, gap := range []float64{200_000, 10_000} {
		ct := offeredLoad(t, CutThrough, msgs, gap, 7)
		sf := offeredLoad(t, StoreAndForward, msgs, gap, 7)
		if sf <= ct {
			t.Errorf("gap %.0f: store-and-forward (%.0f ps) should exceed cut-through (%.0f ps)", gap, sf, ct)
		}
	}
}
