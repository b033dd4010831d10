package cluster

import (
	"fmt"
	"testing"
)

// TestGoldenOwners pins the full rendezvous ranking of a fixed key set
// at N=3 and N=5. Routing keys index persistent shard stores, so a
// change to the score mixer that moved any key would strand its warm
// entries on the wrong shard.
func TestGoldenOwners(t *testing.T) {
	keys := []uint64{0, 1, 2, 3, 42, 0xdeadbeef, 0x0123456789abcdef, 1 << 63, ^uint64(0)}
	want := map[int]string{
		3: "[2 0 1][0 1 2][1 0 2][1 0 2][1 0 2][0 1 2][1 2 0][0 2 1][2 1 0]",
		5: "[2 4 0 3 1][0 1 4 3 2][3 4 1 0 2][1 3 0 4 2][1 0 3 4 2][0 4 3 1 2][1 2 3 4 0][4 0 2 3 1][2 3 1 0 4]",
	}
	for _, n := range []int{3, 5} {
		r := NewRing(n)
		got := ""
		for _, k := range keys {
			got += fmt.Sprint(r.Owners(k, n))
		}
		if got != want[n] {
			t.Errorf("N=%d owners drifted:\n got %s\nwant %s", n, got, want[n])
		}
	}
}
