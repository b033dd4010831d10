package clock

import (
	"sync"
	"testing"
	"time"
)

func fired(ch <-chan time.Time) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// A timer fires exactly when Advance reaches its deadline: one
// nanosecond short leaves it armed, and the tick carries the clock's
// new reading.
func TestFakeTimerFiresAtDeadline(t *testing.T) {
	start := time.Unix(100, 0)
	c := NewFake(start)
	ch, _ := c.Timer(10 * time.Millisecond)
	c.Advance(10*time.Millisecond - time.Nanosecond)
	if fired(ch) {
		t.Fatal("timer fired 1ns before its deadline")
	}
	if c.Waiters() != 1 {
		t.Fatalf("Waiters = %d before the deadline, want 1", c.Waiters())
	}
	c.Advance(time.Nanosecond)
	select {
	case at := <-ch:
		if want := start.Add(10 * time.Millisecond); !at.Equal(want) {
			t.Fatalf("tick carries %v, want %v", at, want)
		}
	default:
		t.Fatal("timer did not fire at its deadline")
	}
	if c.Waiters() != 0 {
		t.Fatalf("Waiters = %d after the fire, want 0", c.Waiters())
	}
	c.Advance(time.Hour)
	if fired(ch) {
		t.Fatal("timer fired twice")
	}
}

// Stop prevents the fire and may be called any number of times, before
// or after the deadline passes.
func TestFakeTimerStopIdempotent(t *testing.T) {
	c := NewFake(time.Unix(0, 0))
	ch, stop := c.Timer(time.Second)
	stop()
	stop()
	if c.Waiters() != 0 {
		t.Fatalf("Waiters = %d after stop, want 0", c.Waiters())
	}
	c.Advance(2 * time.Second)
	stop()
	if fired(ch) {
		t.Fatal("stopped timer fired")
	}
}

// A non-positive delay fires immediately, without an Advance, and
// never counts as a waiter.
func TestFakeTimerNonPositiveFiresNow(t *testing.T) {
	start := time.Unix(5, 0)
	c := NewFake(start)
	for _, d := range []time.Duration{0, -time.Second} {
		ch, stop := c.Timer(d)
		select {
		case at := <-ch:
			if !at.Equal(start) {
				t.Fatalf("Timer(%v) ticked at %v, want %v", d, at, start)
			}
		default:
			t.Fatalf("Timer(%v) did not fire immediately", d)
		}
		stop()
	}
	if c.Waiters() != 0 {
		t.Fatalf("Waiters = %d, want 0", c.Waiters())
	}
}

// Waiters counts only armed timers: not fired ones, not stopped ones.
func TestFakeWaitersCountsArmed(t *testing.T) {
	c := NewFake(time.Unix(0, 0))
	_, stopA := c.Timer(time.Second)
	c.Timer(2 * time.Second)
	c.Timer(3 * time.Second)
	if n := c.Waiters(); n != 3 {
		t.Fatalf("Waiters = %d, want 3", n)
	}
	stopA()
	if n := c.Waiters(); n != 2 {
		t.Fatalf("Waiters = %d after one stop, want 2", n)
	}
	c.Advance(2 * time.Second)
	if n := c.Waiters(); n != 1 {
		t.Fatalf("Waiters = %d after one fire, want 1", n)
	}
}

// Concurrent Advance, Timer, stop and Now calls are race-free (run
// under -race), and every timer armed before the final Advance past all
// deadlines has either fired or been stopped.
func TestFakeConcurrent(t *testing.T) {
	c := NewFake(time.Unix(0, 0))
	var wg sync.WaitGroup
	chans := make([][]<-chan time.Time, 4)
	for g := range chans {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ch, stop := c.Timer(time.Duration(i%7+1) * time.Millisecond)
				if i%5 == 0 {
					stop()
					continue
				}
				chans[g] = append(chans[g], ch)
				_ = c.Now()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			c.Advance(time.Millisecond)
			_ = c.Waiters()
		}
	}()
	wg.Wait()
	c.Advance(time.Second)
	if n := c.Waiters(); n != 0 {
		t.Fatalf("Waiters = %d after advancing past every deadline, want 0", n)
	}
	for g, cs := range chans {
		for i, ch := range cs {
			if !fired(ch) {
				t.Fatalf("goroutine %d timer %d never fired", g, i)
			}
		}
	}
}

// System satisfies the seam with the real clock.
func TestSystemTimer(t *testing.T) {
	var c Clock = System{}
	ch, stop := c.Timer(time.Millisecond)
	defer stop()
	<-ch
	if c.Now().IsZero() {
		t.Fatal("System.Now returned the zero time")
	}
}
