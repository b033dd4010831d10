// The completed-trace store: a bounded ring in completion order with
// slow-request exemplar retention. Capacity caps memory; the K worst
// (slowest) traces per route are pinned against eviction, so the
// interesting tail outlives the steady-state churn that would otherwise
// flush it. Records are immutable once added — snapshots share their
// slices and maps read-only.
package tracing

import "sync"

// Record is one completed trace in wire form. DurationNS equals the sum
// of its stages' DurationNS exactly — the contract the loadgen
// trace-assert mode and the clock.Fake tests enforce.
type Record struct {
	TraceID     string            `json:"trace_id"`
	Seq         uint64            `json:"seq"`
	Route       string            `json:"route"`
	StartUnixNS int64             `json:"start_unix_ns"`
	DurationNS  int64             `json:"duration_ns"`
	Outcome     string            `json:"outcome"`
	Exemplar    bool              `json:"exemplar"`
	Annotations map[string]string `json:"annotations,omitempty"`
	Stages      []StageRecord     `json:"stages"`
	Marks       []MarkRecord      `json:"marks,omitempty"`
}

// StageRecord is one contiguous stage of a request's lifetime.
type StageRecord struct {
	SpanID     string `json:"span_id"`
	Name       string `json:"name"`
	OffsetNS   int64  `json:"offset_ns"`
	DurationNS int64  `json:"duration_ns"`
}

// MarkRecord is one instantaneous event inside a request.
type MarkRecord struct {
	Name     string `json:"name"`
	OffsetNS int64  `json:"offset_ns"`
}

// buffer is the bounded completed-trace ring. Pinning is by identity:
// the exemplars map holds the same *Record pointers the ring does.
type buffer struct {
	mu        sync.Mutex
	capacity  int
	k         int
	ring      []*Record            // guarded by mu
	exemplars map[string][]*Record // guarded by mu — route -> current K worst, unordered
	pinned    map[*Record]bool     // guarded by mu
	completed uint64               // guarded by mu
	evicted   uint64               // guarded by mu
}

func newBuffer(capacity, k int) *buffer {
	return &buffer{
		capacity:  capacity,
		k:         k,
		exemplars: make(map[string][]*Record),
		pinned:    make(map[*Record]bool),
	}
}

// add commits one completed record, reporting whether it entered its
// route's exemplar set. Eviction removes the oldest non-pinned record;
// when every resident is pinned (capacity <= routes*K), the oldest is
// evicted outright and unpinned, keeping the ring exactly bounded.
func (b *buffer) add(rec *Record) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.completed++

	becameExemplar := false
	if b.k > 0 {
		lst := b.exemplars[rec.Route]
		if len(lst) < b.k {
			b.exemplars[rec.Route] = append(lst, rec)
			b.pinned[rec] = true
			becameExemplar = true
		} else {
			// Displace the fastest incumbent only on a strictly slower
			// newcomer: ties keep the incumbent, so exemplar churn is
			// deterministic under a frozen clock (every duration 0).
			mi := 0
			for i, e := range lst {
				if e.DurationNS < lst[mi].DurationNS {
					mi = i
				}
			}
			if rec.DurationNS > lst[mi].DurationNS {
				delete(b.pinned, lst[mi])
				lst[mi] = rec
				b.pinned[rec] = true
				becameExemplar = true
			}
		}
	}

	b.ring = append(b.ring, rec)
	for len(b.ring) > b.capacity {
		victim := -1
		for i, r := range b.ring {
			if !b.pinned[r] {
				victim = i
				break
			}
		}
		if victim < 0 {
			victim = 0
			b.unpinLocked(b.ring[0])
		}
		b.ring = append(b.ring[:victim], b.ring[victim+1:]...)
		b.evicted++
	}
	return becameExemplar
}

// unpinLocked removes rec from the pinned set and its route's exemplar
// list — the force-eviction path when the whole ring is pinned.
func (b *buffer) unpinLocked(rec *Record) {
	delete(b.pinned, rec)
	lst := b.exemplars[rec.Route]
	for i, e := range lst {
		if e == rec {
			b.exemplars[rec.Route] = append(lst[:i], lst[i+1:]...)
			return
		}
	}
}

// snapshot copies the ring in completion order, stamping each copy's
// Exemplar flag from the current pinned set. The copies share stage,
// mark, and annotation storage with the immutable originals.
func (b *buffer) snapshot() []Record {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Record, len(b.ring))
	for i, r := range b.ring {
		out[i] = *r
		out[i].Exemplar = b.pinned[r]
	}
	return out
}

func (b *buffer) stats() (completed, evicted uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.completed, b.evicted
}
