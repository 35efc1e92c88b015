package sim

import (
	"runtime"
	"testing"
)

// TestTaskPoolRecycles pins the Spawn fast path: steady-state spawns
// reuse pooled Task structs and parked goroutines instead of
// allocating.
func TestTaskPoolRecycles(t *testing.T) {
	// Warm the pool with more tasks than the second kernel will hold
	// live at once, so its measured spawns never hit the cold path.
	k := New(1)
	total := 0
	for i := 0; i < 100; i++ {
		k.Spawn("unit", func(tk *Task) {
			tk.Sleep(10)
			total++
		})
	}
	k.Run()
	if total != 100 {
		t.Fatalf("ran %d of 100 tasks", total)
	}
	k.Shutdown()

	// Trampolines repool asynchronously after yielding; wait until the
	// free stack has absorbed the finished tasks before measuring.
	for i := 0; i < 1000; i++ {
		taskPool.mu.Lock()
		n := len(taskPool.free)
		taskPool.mu.Unlock()
		if n >= 100 {
			break
		}
		runtime.Gosched()
	}

	// A second kernel reusing the warmed pool must behave identically.
	k2 := New(1)
	total2 := 0
	for i := 0; i < 50; i++ {
		k2.Spawn("unit", func(tk *Task) {
			tk.Sleep(10)
			total2++
		})
	}
	extra := func(tk *Task) { total2++ }
	allocs := testing.AllocsPerRun(10, func() {
		k2.Spawn("extra", extra)
	})
	k2.Run()
	k2.Shutdown()
	if total2 != 50+11 {
		t.Fatalf("ran %d tasks, want %d", total2, 61)
	}
	// Warm spawns: no Task/goroutine/channel allocations (the task
	// table insert and event slab refill may allocate occasionally).
	if !raceEnabled && allocs > 1 {
		t.Fatalf("warm Spawn allocates %.1f times per call", allocs)
	}
}

// TestDirectSwitchKeepsOrder pins the park fast path against the
// kernel-loop scheduling order: two tasks ping-ponging over channels
// at one instant interleave exactly FIFO.
func TestDirectSwitchKeepsOrder(t *testing.T) {
	k := New(3)
	ch := NewChan[int](k, "pp", 1)
	var order []int
	k.Spawn("a", func(tk *Task) {
		for i := 0; i < 5; i++ {
			ch.Send(tk, i)
			order = append(order, 100+i)
			tk.Sleep(0)
		}
	})
	k.Spawn("b", func(tk *Task) {
		for i := 0; i < 5; i++ {
			v, ok := ch.Recv(tk)
			if !ok {
				t.Errorf("channel closed early")
				return
			}
			order = append(order, 200+v)
		}
	})
	k.Run()
	k.Shutdown()
	want := []int{100, 200, 101, 201, 102, 202, 103, 203, 104, 204}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}
