package splitmix

import "testing"

// TestGoldenMix pins the finalizer on fixed inputs. Every persisted
// trace ID, rendezvous ranking and fault schedule in the repo is a
// function of these outputs.
func TestGoldenMix(t *testing.T) {
	for _, c := range []struct{ in, want uint64 }{
		{0, 0},
		{1, 0x5692161d100b05e5},
		{0x9e3779b97f4a7c15, 0xe220a8397b1dcdaf},
		{^uint64(0), 0xb4d055fcf2cbbd7b},
	} {
		if got := Mix(c.in); got != c.want {
			t.Errorf("Mix(%#x) = %#016x, want %#016x", c.in, got, c.want)
		}
	}
}

// TestGoldenDraw pins Draw on fixed coordinates, both the uniform and
// the raw hash (the store's fault filesystem uses h to pick torn-write
// lengths and flipped bytes).
func TestGoldenDraw(t *testing.T) {
	for _, c := range []struct {
		seed, key, k uint64
		u            float64
		h            uint64
	}{
		{1, 2, 3, 0.6170680147614358, 0x9df82b5eced9e621},
		{0xfeed, 0, 0, 0.6651317569900634, 0xaa461327cda7d247},
		{^uint64(0), 12345, 7, 0.35346699789078706, 0x5a7cd02c27fecf60},
	} {
		u, h := Draw(c.seed, c.key, c.k)
		if u != c.u || h != c.h {
			t.Errorf("Draw(%#x, %d, %d) = (%v, %#016x), want (%v, %#016x)", c.seed, c.key, c.k, u, h, c.u, c.h)
		}
	}
}
