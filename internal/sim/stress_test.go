package sim

import (
	"math/rand"
	"testing"
)

// stressTrace is one observed scheduling step: which logical actor ran
// and at what virtual time. The kernel serializes all task execution,
// so appending to a shared slice without locking is safe (and any
// violation of that property shows up under -race).
type stressStep struct {
	actor int
	at    Time
}

// runStressWorkload runs the 10k-task mixed workload and returns its
// full scheduling trace. Each task follows a private seeded RNG, so
// the workload itself is deterministic; the trace captures the
// kernel's global (time, seq) dispatch order end to end, exercising
// the heap, the same-instant run queue, stale-wake cancellation
// (waiters race futures against timeouts), spawn churn, and After
// closures all at once.
func runStressWorkload(seed int64) []stressStep {
	const nTasks = 10000
	k := New(seed)
	trace := make([]stressStep, 0, nTasks*8)
	record := func(actor int, at Time) {
		trace = append(trace, stressStep{actor: actor, at: at})
	}
	wakeups := make([]*Future[int], nTasks/4) // one per waiter
	for i := 0; i < nTasks; i++ {
		i := i
		rng := rand.New(rand.NewSource(seed ^ int64(i)*2654435761))
		switch i % 4 {
		case 0: // sleepers: mixed-duration Sleep chains (heap path)
			k.Spawn("sleeper", func(t *Task) {
				for s := 0; s < 4; s++ {
					t.Sleep(Time(rng.Intn(5000)))
					record(i, t.Now())
				}
			})
		case 1: // yielders: same-instant rescheduling (run-queue path)
			k.Spawn("yielder", func(t *Task) {
				for s := 0; s < 4; s++ {
					t.Yield()
					record(i, t.Now())
				}
			})
		case 2: // spawners: task churn plus After closures
			k.Spawn("spawner", func(t *Task) {
				t.Sleep(Time(rng.Intn(1000)))
				record(i, t.Now())
				k.After(Time(rng.Intn(1000)), func() {
					record(i, k.Now())
				})
				k.Spawn("child", func(ct *Task) {
					ct.Sleep(Time(rng.Intn(500)))
					record(i, ct.Now())
				})
			})
		case 3: // waiters: block on a future, racing a timeout
			f := NewFuture[int]()
			wakeups[i/4] = f
			k.Spawn("waiter", func(t *Task) {
				if v, err := f.WaitTimeout(t, Time(rng.Intn(2000)+1)); err == nil {
					record(v, t.Now())
				} else {
					record(i, t.Now())
				}
			})
		}
	}
	// A feeder wakes some of the waiters before their timeouts fire, so
	// both the satisfied and timed-out paths run (and the timeout events
	// for satisfied waiters become stale wakes to cancel).
	k.Spawn("feeder", func(t *Task) {
		rng := rand.New(rand.NewSource(seed * 31))
		for s := 0; s < nTasks/8; s++ {
			t.Sleep(Time(rng.Intn(16)))
			wakeups[s].Set(s)
		}
	})
	k.Run()
	k.Shutdown()
	return trace
}

// TestKernelStressDeterministic runs the 10k-task workload twice and
// requires bit-identical traces: same actors, same virtual times, same
// global order. This is the kernel-level guarantee behind the repo's
// byte-identical fabric traces — event pooling, the 4-ary heap, the
// same-instant run queue, and waiter recycling must not leak host
// nondeterminism into dispatch order.
func TestKernelStressDeterministic(t *testing.T) {
	a := runStressWorkload(42)
	b := runStressWorkload(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at step %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
}

// TestKernelStressOrdering checks the scheduling invariant on the
// trace: virtual time never moves backwards across dispatches,
// regardless of whether events came off the heap or the run queue.
func TestKernelStressOrdering(t *testing.T) {
	trace := runStressWorkload(7)
	for i := 1; i < len(trace); i++ {
		if trace[i].at < trace[i-1].at {
			t.Fatalf("time went backwards at step %d: %d -> %d",
				i, trace[i-1].at, trace[i].at)
		}
	}
}

// TestKernelStressSeedSensitivity makes sure the workload is actually
// exercising seed-dependent paths: different seeds must yield
// different traces (otherwise the determinism test proves nothing).
func TestKernelStressSeedSensitivity(t *testing.T) {
	a := runStressWorkload(1)
	b := runStressWorkload(2)
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("traces identical across different seeds; workload not seed-sensitive")
		}
	}
}
