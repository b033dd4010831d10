// Package splitmix is the repo's one deterministic mixer: the
// splitmix64 finalizer and the seeded draw built on it. Trace identity,
// rendezvous scores, and both fault injectors (the NoC/machine injector
// and the store's fault filesystem) derive every "random" value here, as
// a pure function of its inputs — no clock, no global rand — so
// same-seed runs reproduce bit for bit.
package splitmix

// Mix is the splitmix64 finalizer: a bijective avalanche over uint64.
func Mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Draw returns draw k of the stream keyed by key under seed, as a
// uniform u in [0, 1) and the raw 64-bit hash h it came from. It is a
// pure function of (seed, key, k): callers own their sequence counters,
// and the same coordinates always yield the same draw.
func Draw(seed, key, k uint64) (u float64, h uint64) {
	h = Mix(seed ^ Mix(key+0x9e3779b97f4a7c15*k))
	return float64(h>>11) / (1 << 53), h
}
