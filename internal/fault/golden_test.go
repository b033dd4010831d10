package fault

import "testing"

// TestGoldenSchedule pins the first 64 fault decisions at one site for
// two seeds. The schedule is a pure hash of (seed, site, k); fault
// replays and E19's sweeps are reproducible only while it holds.
func TestGoldenSchedule(t *testing.T) {
	site := Site(ClassSpike, 3, 4)
	want := map[int64]string{
		1: "0000001000010011101010101000000101000000010101100000100100000001",
		7: "1001100011000001000000011010001001001001110101100010000001000100",
	}
	for _, seed := range []int64{1, 7} {
		in := mustNew(t, Config{Seed: seed, Rate: 0.3})
		got := make([]byte, 0, 64)
		for _, f := range in.Schedule(site, 64) {
			if f {
				got = append(got, '1')
			} else {
				got = append(got, '0')
			}
		}
		if string(got) != want[seed] {
			t.Errorf("seed %d schedule drifted:\n got %s\nwant %s", seed, got, want[seed])
		}
	}
}
