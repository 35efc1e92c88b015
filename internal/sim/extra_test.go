package sim

import (
	"testing"
	"time"
)

func TestStopHaltsRun(t *testing.T) {
	k := New(1)
	ticks := 0
	k.Spawn("ticker", func(tk *Task) {
		for i := 0; i < 100; i++ {
			tk.Sleep(time.Microsecond)
			ticks++
			if ticks == 5 {
				k.Stop()
			}
		}
	})
	k.Run()
	if ticks != 5 {
		t.Errorf("ticks = %d, want 5 (Stop must halt the loop)", ticks)
	}
	k.Shutdown()
}

func TestTrySendTryRecvBounded(t *testing.T) {
	k := New(1)
	ch := NewChan[int](k, "c", 2)
	if !ch.TrySend(1) || !ch.TrySend(2) {
		t.Fatal("sends under capacity failed")
	}
	if ch.TrySend(3) {
		t.Fatal("send over capacity succeeded")
	}
	if v, ok := ch.TryRecv(); !ok || v != 1 {
		t.Fatalf("TryRecv = %d, %v", v, ok)
	}
	if !ch.TrySend(3) {
		t.Fatal("send after drain failed")
	}
	ch.Close()
	if ch.TrySend(4) {
		t.Fatal("send on closed channel succeeded")
	}
	k.Shutdown()
}

func TestTryRecvEmpty(t *testing.T) {
	k := New(1)
	ch := NewChan[string](k, "c", 0)
	if _, ok := ch.TryRecv(); ok {
		t.Fatal("TryRecv on empty channel returned a value")
	}
	k.Shutdown()
}

func TestYieldInterleavesFairly(t *testing.T) {
	k := New(1)
	var order []int
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("y", func(tk *Task) {
			for j := 0; j < 3; j++ {
				order = append(order, i)
				tk.Sleep(0)
			}
		})
	}
	k.Run()
	// Perfect interleave: 0 1 0 1 0 1.
	for idx, v := range order {
		if v != idx%2 {
			t.Fatalf("order = %v; a zero Sleep must round-robin same-instant tasks", order)
		}
	}
	k.Shutdown()
}

func TestWaitGroupImmediateWait(t *testing.T) {
	k := New(1)
	var wg WaitGroup
	done := false
	k.Spawn("w", func(tk *Task) {
		wg.Wait(tk) // counter already zero: must not block
		done = true
	})
	k.Run()
	if !done {
		t.Fatal("Wait on zero counter blocked")
	}
	k.Shutdown()
}

func TestFutureSetBeforeWait(t *testing.T) {
	k := New(1)
	f := NewFuture[int]()
	f.Set(9)
	var got int
	k.Spawn("w", func(tk *Task) { got, _ = f.Wait(tk) })
	k.Run()
	if got != 9 {
		t.Errorf("got %d", got)
	}
	k.Shutdown()
}

func TestDoubleResolvePanics(t *testing.T) {
	k := New(1)
	f := NewFuture[int]()
	f.Set(1)
	defer func() {
		if recover() == nil {
			t.Fatal("second Set did not panic")
		}
		k.Shutdown()
	}()
	f.Set(2)
}

func TestFutureWaitTimeout(t *testing.T) {
	k := New(1)
	f := NewFuture[int]()
	var err error
	var at Time
	k.Spawn("w", func(tk *Task) {
		_, err = f.WaitTimeout(tk, 50*time.Microsecond)
		at = tk.Now()
		// The future is still usable afterwards.
		v, err2 := f.Wait(tk)
		if err2 != nil || v != 7 {
			t.Errorf("post-timeout wait: %d %v", v, err2)
		}
	})
	k.Spawn("late", func(tk *Task) {
		tk.Sleep(100 * time.Microsecond)
		f.Set(7)
	})
	k.Run()
	if err != ErrTimeout || at != 50*time.Microsecond {
		t.Errorf("err=%v at=%v", err, at)
	}
	k.Shutdown()
}

func TestFutureWaitTimeoutResolvedInTime(t *testing.T) {
	k := New(1)
	f := NewFuture[int]()
	var got int
	var err error
	k.Spawn("w", func(tk *Task) {
		got, err = f.WaitTimeout(tk, 100*time.Microsecond)
		// Sleep past the timer: its late firing must not disturb this
		// or any later park.
		tk.Sleep(time.Millisecond)
	})
	k.Spawn("set", func(tk *Task) {
		tk.Sleep(10 * time.Microsecond)
		f.Set(3)
	})
	k.Run()
	if err != nil || got != 3 {
		t.Errorf("got=%d err=%v", got, err)
	}
	k.Shutdown()
}

func TestFutureWaitTimeoutAlreadyDone(t *testing.T) {
	k := New(1)
	f := NewFuture[int]()
	f.Set(5)
	var got int
	k.Spawn("w", func(tk *Task) { got, _ = f.WaitTimeout(tk, time.Microsecond) })
	k.Run()
	if got != 5 {
		t.Errorf("got %d", got)
	}
	k.Shutdown()
}

// TestFutureTimeoutRaceWithResolve: resolution and timeout at the very
// same virtual instant must not double-wake the task.
func TestFutureTimeoutRaceWithResolve(t *testing.T) {
	k := New(1)
	f := NewFuture[int]()
	after := NewFuture[int]()
	k.Spawn("w", func(tk *Task) {
		v, err := f.WaitTimeout(tk, 50*time.Microsecond)
		if err == nil && v != 9 {
			t.Errorf("v=%d", v)
		}
		// Immediately park on something else; a stray wake would
		// resume this early with ErrTimeout.
		got, err := after.WaitTimeout(tk, 200*time.Microsecond)
		if err != nil || got != 1 {
			t.Errorf("follow-up park disturbed: got=%d err=%v", got, err)
		}
	})
	k.Spawn("set", func(tk *Task) {
		tk.Sleep(50 * time.Microsecond) // same instant as the timeout
		f.Set(9)
		tk.Sleep(100 * time.Microsecond)
		after.Set(1)
	})
	k.Run()
	k.Shutdown()
}

// TestFreeListCountsLent: a free list counts the records it has lent,
// Get − Put − Drop, and a kernel names each tracked pool that has any
// out, with the count.
func TestFreeListCountsLent(t *testing.T) {
	k := New(1)
	var a, b FreeList[int]
	k.Track("a", &a)
	k.Track("b", &b)
	x, _ := a.Get(), a.Get()
	b.Put(b.Get())
	if a.Lent() != 2 || b.Lent() != 0 || a.Len() != 0 || b.Len() != 1 {
		t.Errorf("lent %d and %d, parked %d and %d; want 2, 0, 0, 1", a.Lent(), b.Lent(), a.Len(), b.Len())
	}
	if got := k.Unparked(); got != "a 2" {
		t.Errorf("Unparked() = %q, want %q", got, "a 2")
	}
	a.Put(x)
	b.Get()
	if got := k.Unparked(); got != "a 1, b 1" {
		t.Errorf("Unparked() = %q, want %q", got, "a 1, b 1")
	}
	a.Drop() // the second record is quarantined, not parked
	b.Drop()
	if got := k.Unparked(); got != "" || a.Len() != 1 {
		t.Errorf("Unparked() = %q with %d parked, want every pool parked and 1", got, a.Len())
	}
}
