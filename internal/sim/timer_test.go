package sim_test

import (
	"testing"

	"fractos/internal/sim"
)

type countFire struct{ n int }

func (c *countFire) Fire() { c.n++ }

// TestTimerStopRemovesTheEvent: a stopped timer never fires, is gone
// from the heap at once (not left to be popped at its deadline), and a
// second Stop — or one after the timer fired — reports false.
func TestTimerStopRemovesTheEvent(t *testing.T) {
	k := sim.New(1)
	var stopped, fired countFire
	tm := k.AfterCall(100, &stopped)
	late := k.AfterCall(50, &fired)
	if k.QueuedEvents() != 2 {
		t.Fatalf("%d events queued, want 2", k.QueuedEvents())
	}
	if !tm.Stop() {
		t.Error("Stop of a pending timer reported false")
	}
	if k.QueuedEvents() != 1 {
		t.Errorf("%d events queued after Stop, want 1", k.QueuedEvents())
	}
	if tm.Stop() {
		t.Error("second Stop reported true")
	}
	e0 := sim.TotalEvents()
	if end := k.Run(); end != 50 {
		t.Errorf("run ended at %v, want 50: the stopped timer must not advance the clock", end)
	}
	if got := sim.TotalEvents() - e0; got != 1 {
		t.Errorf("%d events processed, want 1", got)
	}
	if stopped.n != 0 || fired.n != 1 {
		t.Errorf("stopped timer fired %d times, the other %d, want 0 and 1", stopped.n, fired.n)
	}
	if late.Stop() {
		t.Error("Stop after the timer fired reported true")
	}
	if (sim.Timer{}).Stop() {
		t.Error("Stop of the zero Timer reported true")
	}
}

// TestTimerStaleHandleSparesRecycledEvent: events are pooled, so the
// struct behind a fired timer is soon somebody else's event. The stale
// handle must not stop that one.
func TestTimerStaleHandleSparesRecycledEvent(t *testing.T) {
	k := sim.New(1)
	var first, second countFire
	stale := k.AfterCall(10, &first)
	k.Run()
	// The pool is LIFO: this event reuses the struct stale points at.
	k.AfterCall(10, &second)
	if stale.Stop() {
		t.Error("a stale handle stopped a recycled event")
	}
	k.Run()
	if first.n != 1 || second.n != 1 {
		t.Errorf("fired %d and %d times, want 1 and 1", first.n, second.n)
	}
}

// TestTimerStopAtTheSameInstant: a timer due at the current instant
// sits in the run queue, where Stop tombstones it; it still never
// fires, and stopping a timer from inside its own Fire is a no-op.
func TestTimerStopAtTheSameInstant(t *testing.T) {
	k := sim.New(1)
	var c countFire
	tm := k.AfterCall(0, &c)
	if !tm.Stop() || tm.Stop() {
		t.Error("want the first Stop true, the second false")
	}
	var self sim.Timer
	stoppedSelf := true
	self = k.AfterCall(5, fireFunc(func() { stoppedSelf = self.Stop() }))
	k.Run()
	if c.n != 0 {
		t.Errorf("a timer stopped in the run queue fired %d times", c.n)
	}
	if stoppedSelf {
		t.Error("Stop from inside the timer's own Fire reported true")
	}
	if k.QueuedEvents() != 0 {
		t.Errorf("%d events left", k.QueuedEvents())
	}
}

type fireFunc func()

func (f fireFunc) Fire() { f() }

// TestTimedWaitsLeaveNoEventBehind: the deadline of WaitTimeout is the
// waiting task's own wake, and the wake that answers the wait replaces
// it. After N waits answered before their deadline the kernel holds no
// event for them — there used to be one closure per wait, in the heap
// until its deadline — and timeouts still expire.
func TestTimedWaitsLeaveNoEventBehind(t *testing.T) {
	const (
		n        = 100
		deadline = sim.Time(1_000_000)
	)
	k := sim.New(1)
	futs := make([]*sim.Future[int], n)
	for i := range futs {
		futs[i] = sim.NewFuture[int]()
	}
	k.Spawn("answerer", func(tk *sim.Task) {
		for i := 0; i < n; i++ {
			tk.Sleep(10)
			futs[i].Set(i)
		}
	})
	waited := 0
	k.Spawn("waiter", func(tk *sim.Task) {
		for i := 0; i < n; i++ {
			if v, err := futs[i].WaitTimeout(tk, deadline); err != nil || v != i {
				t.Errorf("wait %d: %d, %v", i, v, err)
			}
			waited++
		}
		if q := k.QueuedEvents(); q != 0 {
			t.Errorf("%d events queued after %d answered waits, want 0", q, n)
		}
		if tk.Now() >= deadline {
			t.Errorf("clock at %v: an answered wait's deadline still advanced it", tk.Now())
		}
		// And an unanswered wait still times out, on time, twice over:
		// the waiter it left on the future is gone.
		start := tk.Now()
		never := sim.NewFuture[int]()
		for round := 0; round < 2; round++ {
			if _, err := never.WaitTimeout(tk, 500); err != sim.ErrTimeout {
				t.Errorf("unanswered wait: %v, want ErrTimeout", err)
			}
		}
		if got := tk.Now() - start; got != 1000 {
			t.Errorf("two 500 ns timeouts took %v", got)
		}
		never.Set(7) // no stale waiter to wake
		if v, err := never.WaitTimeout(tk, 500); err != nil || v != 7 {
			t.Errorf("a future resolved after the timeouts: got %d, %v", v, err)
		}
	})
	k.Run()
	k.Shutdown()
	if waited != n {
		t.Fatalf("waiter finished %d of %d rounds", waited, n)
	}
}
