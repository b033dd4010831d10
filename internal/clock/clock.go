// Package clock is the repo's one time seam. The serving layer, the
// cluster router and the flight recorder read time and arm timers only
// through a Clock, so a Fake makes every time-dependent behavior —
// latency accounting, Retry-After hints, hedge timers, trace timestamps
// — deterministic under test, and a Fake frozen at the epoch makes the
// byte-reproducibility drills possible. Results never depend on the
// clock: time shapes telemetry, backpressure hints and when a hedge
// fires, never what an answer is.
package clock

import (
	"sync"
	"time"
)

// Clock supplies the current time and one-shot timers.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Timer returns a channel that delivers one tick after d, and a stop
	// function releasing the timer early. Stop is idempotent and safe
	// after the tick.
	Timer(d time.Duration) (<-chan time.Time, func())
}

// System reads the real wall clock and arms real timers.
type System struct{}

// Now implements Clock.
func (System) Now() time.Time {
	// The repo's only wall-clock read behind the seam; everything
	// downstream receives time through the Clock interface.
	//lint:allow nondeterminism(wall clock isolated behind the Clock seam; results never depend on it and tests substitute Fake)
	return time.Now()
}

// Timer implements Clock.
func (System) Timer(d time.Duration) (<-chan time.Time, func()) {
	t := time.NewTimer(d)
	return t.C, func() { t.Stop() }
}

// Fake is a manually advanced Clock for deterministic tests: Now is
// frozen until Advance, and timers fire exactly when Advance carries the
// clock to their deadline — never earlier, never on a real-time race.
type Fake struct {
	mu      sync.Mutex
	t       time.Time    // guarded by mu
	waiters []*fakeTimer // guarded by mu
}

type fakeTimer struct {
	at      time.Time
	ch      chan time.Time
	stopped bool
}

// NewFake returns a fake clock frozen at start.
func NewFake(start time.Time) *Fake {
	return &Fake{t: start}
}

// Now implements Clock.
func (c *Fake) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Timer implements Clock. A non-positive delay fires immediately.
func (c *Fake) Timer(d time.Duration) (<-chan time.Time, func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ft := &fakeTimer{at: c.t.Add(d), ch: make(chan time.Time, 1)}
	if d <= 0 {
		ft.ch <- c.t
		ft.stopped = true
		return ft.ch, func() {}
	}
	c.waiters = append(c.waiters, ft)
	return ft.ch, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		ft.stopped = true
	}
}

// Advance moves the clock forward by d and fires every timer whose
// deadline the move reached.
func (c *Fake) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	kept := c.waiters[:0]
	for _, ft := range c.waiters {
		switch {
		case ft.stopped:
		case !ft.at.After(c.t):
			ft.ch <- c.t
		default:
			kept = append(kept, ft)
		}
	}
	c.waiters = kept
}

// Waiters reports the number of armed (unfired, unstopped) timers —
// test support for sequencing an Advance after a timer is known to be
// registered.
func (c *Fake) Waiters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ft := range c.waiters {
		if !ft.stopped {
			n++
		}
	}
	return n
}
