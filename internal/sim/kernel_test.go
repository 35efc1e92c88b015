package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func us(n int64) Time { return Time(n) * time.Microsecond }

func TestSleepAdvancesVirtualClock(t *testing.T) {
	k := New(1)
	var woke Time
	k.Spawn("sleeper", func(tk *Task) {
		tk.Sleep(us(500))
		woke = tk.Now()
	})
	end := k.Run()
	if woke != us(500) {
		t.Errorf("woke at %v, want %v", woke, us(500))
	}
	if end != us(500) {
		t.Errorf("run ended at %v, want %v", end, us(500))
	}
}

func TestEventsRunInTimestampOrder(t *testing.T) {
	k := New(1)
	var order []int
	for i, d := range []int64{30, 10, 20, 10, 0} {
		i, d := i, d
		k.Spawn(fmt.Sprintf("t%d", i), func(tk *Task) {
			tk.Sleep(us(d))
			order = append(order, i)
		})
	}
	k.Run()
	want := []int{4, 1, 3, 2, 0} // by (time, spawn order)
	if len(order) != len(want) {
		t.Fatalf("got %v want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("got %v want %v", order, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	k := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Spawn(fmt.Sprintf("t%d", i), func(tk *Task) {
			order = append(order, i)
		})
	}
	k.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestAfterRunsInKernelContext(t *testing.T) {
	k := New(1)
	fired := Time(-1)
	k.After(us(42), func() { fired = k.Now() })
	k.Run()
	if fired != us(42) {
		t.Errorf("After fired at %v, want %v", fired, us(42))
	}
}

func TestSpawnFromTask(t *testing.T) {
	k := New(1)
	var got []string
	k.Spawn("parent", func(tk *Task) {
		tk.Kernel().Spawn("child", func(c *Task) {
			got = append(got, "child@"+c.Now().String())
		})
		tk.Sleep(us(1))
		got = append(got, "parent@"+tk.Now().String())
	})
	k.Run()
	if len(got) != 2 || got[0] != "child@0s" {
		t.Fatalf("unexpected order: %v", got)
	}
}

func TestUnboundedChan(t *testing.T) {
	k := New(1)
	ch := NewChan[int](k, "c", 0)
	var got []int
	k.Spawn("recv", func(tk *Task) {
		for i := 0; i < 3; i++ {
			v, ok := ch.Recv(tk)
			if !ok {
				t.Errorf("unexpected close")
			}
			got = append(got, v)
		}
	})
	k.Spawn("send", func(tk *Task) {
		for i := 1; i <= 3; i++ {
			ch.Send(tk, i*10)
			tk.Sleep(us(5))
		}
	})
	k.Run()
	if len(got) != 3 || got[0] != 10 || got[2] != 30 {
		t.Fatalf("got %v", got)
	}
}

func TestBoundedChanBlocksSender(t *testing.T) {
	k := New(1)
	ch := NewChan[int](k, "c", 1)
	var sendDone, recvAt Time
	k.Spawn("send", func(tk *Task) {
		ch.Send(tk, 1) // fills buffer
		ch.Send(tk, 2) // blocks until receiver drains
		sendDone = tk.Now()
	})
	k.Spawn("recv", func(tk *Task) {
		tk.Sleep(us(100))
		ch.Recv(tk)
		recvAt = tk.Now()
		ch.Recv(tk)
	})
	k.Run()
	if sendDone < recvAt {
		t.Errorf("second send completed at %v before receive at %v", sendDone, recvAt)
	}
}

func TestChanCloseDrainsThenReportsNotOK(t *testing.T) {
	k := New(1)
	ch := NewChan[int](k, "c", 0)
	var vals []int
	var closedOK = true
	k.Spawn("recv", func(tk *Task) {
		for {
			v, ok := ch.Recv(tk)
			if !ok {
				closedOK = false
				return
			}
			vals = append(vals, v)
		}
	})
	k.Spawn("send", func(tk *Task) {
		ch.Send(tk, 1)
		ch.Send(tk, 2)
		tk.Sleep(us(1))
		ch.Close()
	})
	k.Run()
	if len(vals) != 2 || closedOK {
		t.Fatalf("vals=%v closedOK=%v", vals, closedOK)
	}
}

func TestFutureResolvesWaiters(t *testing.T) {
	k := New(1)
	f := NewFuture[string]()
	var got [2]string
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("w", func(tk *Task) {
			v, err := f.Wait(tk)
			if err != nil {
				t.Errorf("unexpected err: %v", err)
			}
			got[i] = v
		})
	}
	k.Spawn("set", func(tk *Task) {
		tk.Sleep(us(5))
		f.Set("done")
	})
	k.Run()
	if got[0] != "done" || got[1] != "done" {
		t.Fatalf("got %v", got)
	}
}

func TestFutureFail(t *testing.T) {
	k := New(1)
	f := NewFuture[int]()
	var err error
	k.Spawn("w", func(tk *Task) { _, err = f.Wait(tk) })
	k.Spawn("fail", func(tk *Task) { f.Fail(fmt.Errorf("boom")) })
	k.Run()
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err=%v", err)
	}
}

func TestWaitGroup(t *testing.T) {
	k := New(1)
	var wg WaitGroup
	var doneAt Time
	wg.Add(3)
	for i := 1; i <= 3; i++ {
		i := i
		k.Spawn("w", func(tk *Task) {
			tk.Sleep(us(int64(i * 10)))
			wg.Done()
		})
	}
	k.Spawn("waiter", func(tk *Task) {
		wg.Wait(tk)
		doneAt = tk.Now()
	})
	k.Run()
	if doneAt != us(30) {
		t.Fatalf("wait finished at %v, want %v", doneAt, us(30))
	}
}

func TestSemaphoreWindow(t *testing.T) {
	k := New(1)
	sem := NewSemaphore(2)
	inflight, maxInflight := 0, 0
	var wg WaitGroup
	wg.Add(5)
	for i := 0; i < 5; i++ {
		k.Spawn("worker", func(tk *Task) {
			sem.Acquire(tk)
			inflight++
			if inflight > maxInflight {
				maxInflight = inflight
			}
			tk.Sleep(us(10))
			inflight--
			sem.Release()
			wg.Done()
		})
	}
	k.Run()
	if maxInflight != 2 {
		t.Fatalf("max inflight %d, want 2", maxInflight)
	}
}

// TestSemaphoreQueueDoesNotDrift runs 10k acquire/release cycles of
// three tasks contending for one permit, so every Acquire but the
// holder's queues. The queue pops by in-place shift: once warm the cycles
// allocate nothing, and its capacity stays that of the longest queue.
// Popping by re-slicing (waiters = waiters[1:]) drifted through the
// backing array and reallocated it every few cycles.
func TestSemaphoreQueueDoesNotDrift(t *testing.T) {
	const (
		workers = 3
		warm    = 100
		cycles  = 10_000
	)
	// On one P the task switches' goroutine wait records stay in one
	// cache (parkwarm.go) and never allocate, so the count is the queue's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	k := New(1)
	sem := NewSemaphore(1)
	held, maxCap := 0, 0
	var before, after uint64
	for range workers {
		k.Spawn("worker", func(tk *Task) {
			for held < warm+cycles {
				sem.Acquire(tk)
				switch held++; held {
				case warm:
					before = mallocs()
				case warm + cycles:
					after = mallocs()
				}
				maxCap = max(maxCap, cap(sem.waiters))
				tk.Sleep(1)
				sem.Release()
			}
		})
	}
	k.Run()
	k.Shutdown()
	if held < warm+cycles {
		t.Fatalf("%d cycles ran, want %d", held, warm+cycles)
	}
	if maxCap == 0 || maxCap > workers {
		t.Errorf("cap(waiters) peaked at %d for %d contending tasks", maxCap, workers)
	}
	if n := after - before; !raceEnabled && n != 0 {
		t.Errorf("%d contended cycles allocated %d objects, want 0", cycles, n)
	}
}

// mallocs reads the process-wide count of heap objects allocated so
// far; under the kernel one goroutine runs at a time, so a difference
// taken inside a task is that task's and the kernel's own.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func TestShutdownUnwindsBlockedTasks(t *testing.T) {
	k := New(1)
	ch := NewChan[int](k, "never", 0)
	cleaned := 0
	for i := 0; i < 4; i++ {
		k.Spawn("stuck", func(tk *Task) {
			defer func() { cleaned++ }()
			ch.Recv(tk) // blocks forever
		})
	}
	k.Run()
	if k.Live() != 4 {
		t.Fatalf("live=%d want 4", k.Live())
	}
	k.Shutdown()
	if cleaned != 4 || k.Live() != 0 {
		t.Fatalf("cleaned=%d live=%d", cleaned, k.Live())
	}
}

func TestTaskPanicPropagatesToRun(t *testing.T) {
	k := New(1)
	k.Spawn("bomb", func(tk *Task) { panic("kaboom") })
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic from Run")
		}
	}()
	k.Run()
}

// TestTaskGoexitFailsRun: a task body that leaves through
// runtime.Goexit — what t.Fatal does inside a task — makes Run panic
// with a value naming the task instead of waiting for ever on a kernel
// handoff that never comes. The kernel runs on a goroutine of its own so
// that a regression fails here within seconds, not at go test's timeout.
func TestTaskGoexitFailsRun(t *testing.T) {
	got := make(chan any, 1)
	go func() {
		defer func() { got <- recover() }()
		k := New(1)
		k.Spawn("quitter", func(tk *Task) { runtime.Goexit() })
		k.Run()
	}()
	select {
	case r := <-got:
		if want := goexit(`task "quitter" exited through runtime.Goexit`); r != want {
			t.Fatalf("Run panicked with %v, want %v", r, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after a task's Goexit")
	}
}

// TestRunCatchingReturnsGoexit: RunCatching returns a task's Goexit
// instead of panicking with it, and passes a task's panic on.
func TestRunCatchingReturnsGoexit(t *testing.T) {
	k := New(1)
	k.Spawn("quitter", func(tk *Task) { runtime.Goexit() })
	if got, want := k.RunCatching(), `task "quitter" exited through runtime.Goexit`; got != want {
		t.Errorf("RunCatching() = %q, want %q", got, want)
	}
	k.Shutdown()
	k = New(1)
	k.Spawn("bomb", func(tk *Task) { panic("kaboom") })
	defer func() {
		if r := recover(); r != `task "bomb" panicked: kaboom` {
			t.Errorf("RunCatching passed on %v, want the task's panic", r)
		}
	}()
	k.RunCatching()
}

// TestDeterminism runs a randomized workload twice with the same seed
// and requires identical event traces (property: the simulation is a
// deterministic function of its inputs; the sleeps come from a source
// seeded by the test, as every draw in the simulation does).
func TestDeterminism(t *testing.T) {
	run := func(seed int64) []string {
		k := New(seed)
		rng := rand.New(rand.NewSource(seed))
		ch := NewChan[int](k, "c", 4)
		var trace []string
		for i := 0; i < 8; i++ {
			i := i
			k.Spawn("producer", func(tk *Task) {
				for j := 0; j < 5; j++ {
					tk.Sleep(Time(rng.Intn(100)) * time.Nanosecond)
					ch.Send(tk, i*100+j)
				}
			})
		}
		k.Spawn("consumer", func(tk *Task) {
			for n := 0; n < 40; n++ {
				v, _ := ch.Recv(tk)
				trace = append(trace, fmt.Sprintf("%d@%v", v, tk.Now()))
			}
		})
		k.Run()
		return trace
	}
	check := func(seed int64) bool {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestStaleWakeIgnored(t *testing.T) {
	// A task that finishes while a timer wake for it is still queued
	// must not be resumed again.
	k := New(1)
	f := NewFuture[int]()
	k.Spawn("short", func(tk *Task) {
		// WaitTimeout queues the task's deadline wake; the value
		// arrives first, the task exits, and the deadline must not
		// resume the finished task.
		v, err := f.WaitTimeout(tk, us(100))
		if err != nil || v != 1 {
			t.Errorf("v=%d err=%v", v, err)
		}
	})
	k.Spawn("send", func(tk *Task) { f.Set(1) })
	k.Run() // must not deadlock or panic
}
