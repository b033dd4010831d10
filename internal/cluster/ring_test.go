package cluster

import (
	"testing"

	"repro/internal/splitmix"
)

// testKeys returns nKeys well-mixed routing keys, the shape real
// fingerprints have (fm.Fingerprint is itself an avalanche hash).
func testKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = splitmix.Mix(uint64(i) + 0x0123456789ABCDEF)
	}
	return keys
}

// Balance: each shard's key share concentrates around 1/N, with the
// max/min ratio bounded — the property that makes per-shard caches stay
// warm without any shard becoming the hot one.
func TestRingBalance(t *testing.T) {
	keys := testKeys(10000)
	for _, n := range []int{2, 4, 8} {
		r := NewRing(n)
		counts := make([]int, n)
		for _, k := range keys {
			counts[r.Owners(k, 1)[0]]++
		}
		min, max := counts[0], counts[0]
		for _, c := range counts[1:] {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if min == 0 {
			t.Fatalf("n=%d: a shard owns zero keys: %v", n, counts)
		}
		if ratio := float64(max) / float64(min); ratio > 1.3 {
			t.Fatalf("n=%d: max/min key share %.3f > 1.3: %v", n, ratio, counts)
		}
	}
}

// Minimal movement, growth direction: adding one shard reassigns only
// the keys the new shard wins — about 1/(N+1) of them — and every other
// key keeps its owner.
func TestRingMinimalMovementOnAdd(t *testing.T) {
	keys := testKeys(10000)
	old, grown := NewRing(8), NewRing(9)
	moved := 0
	for _, k := range keys {
		a, b := old.Owners(k, 1)[0], grown.Owners(k, 1)[0]
		if a != b {
			moved++
			if b != 8 {
				// A key may only move TO the new shard; two old shards
				// trading keys would be gratuitous cache invalidation.
				t.Fatalf("key %x moved %d -> %d, not to the new shard", k, a, b)
			}
		}
	}
	// Expectation is 10000/9 ~= 1111; allow a generous band around it.
	if moved < 700 || moved > 1600 {
		t.Fatalf("adding a 9th shard moved %d/10000 keys, want ~1111", moved)
	}
}

// Minimal movement, shrink direction: removing the last shard reassigns
// exactly the keys it owned (per-shard tokens are index-derived, so the
// surviving shards' scores are untouched).
func TestRingMinimalMovementOnRemove(t *testing.T) {
	keys := testKeys(10000)
	old, shrunk := NewRing(8), NewRing(7)
	for _, k := range keys {
		a, b := old.Owners(k, 1)[0], shrunk.Owners(k, 1)[0]
		if a != 7 && a != b {
			t.Fatalf("key %x owned by surviving shard %d moved to %d", k, a, b)
		}
	}
}

// The replica set: correct size, distinct members, rank-stable, and the
// failover target is the same shard the hedge targets (owners[1]).
func TestRingOwners(t *testing.T) {
	r := NewRing(5)
	for _, k := range testKeys(200) {
		owners := r.Owners(k, 3)
		if len(owners) != 3 {
			t.Fatalf("key %x: want 3 owners, got %v", k, owners)
		}
		seen := map[int]bool{}
		for _, o := range owners {
			if o < 0 || o >= 5 || seen[o] {
				t.Fatalf("key %x: bad replica set %v", k, owners)
			}
			seen[o] = true
		}
		again := r.Owners(k, 3)
		for i := range owners {
			if owners[i] != again[i] {
				t.Fatalf("key %x: replica set not deterministic: %v vs %v", k, owners, again)
			}
		}
		// Rank order means a prefix relation: the top-2 set is the top-3
		// set's prefix, so growing R never reshuffles existing replicas.
		two := r.Owners(k, 2)
		if two[0] != owners[0] || two[1] != owners[1] {
			t.Fatalf("key %x: owners not rank-stable: %v vs %v", k, two, owners)
		}
	}
	if got := r.Owners(42, 99); len(got) != 5 {
		t.Fatalf("replicas must clamp to N, got %v", got)
	}
	if got := r.Owners(42, 0); len(got) != 1 {
		t.Fatalf("replicas must clamp to 1, got %v", got)
	}
}
