package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// A goroutine blocked on a channel holds one of the Go runtime's wait
// records (runtime.sudog) from the moment it blocks until it runs
// again. The runtime keeps freed records in a cache per P and allocates
// one only when the blocking goroutine's P has none; a record taken on
// one P is freed on whichever P the goroutine wakes up on. A kernel and
// its tasks hand control to one another millions of times, each switch
// one goroutine blocking and one waking, nearly always on the same P, so
// that P's cache never runs out. But the scheduler moves the chain now
// and then: a woken goroutine stolen by an idle P carries a record
// there, a preempted one resumes elsewhere and carries none, and over a
// run the records drift to one P while the other, once empty, allocates
// each time the chain comes back to it. Those are the only allocations
// of a task switch, a handful in millions, and how many land in a given
// stretch of a run depends on the host's scheduling alone — enough to
// blur an allocation count that is otherwise exact (copy-bulk's
// host_allocs_per_req: 74 allocations in 150 000 requests, plus 1 to 14
// of these).
//
// warmParking, run once before the first kernel, gives every P a
// reserve the drift does not exhaust: one waker per P blocks 64
// goroutines, then spins until all wakers are spinning — each then has a
// P to itself — and wakes its 64, which start on that P's run queue and
// free their records into its cache (128 a P, kept across garbage
// collections).
var parkWarm sync.Once

func warmParking() {
	const perP = 64
	procs := runtime.GOMAXPROCS(0)
	var spinning atomic.Int32
	var wakers sync.WaitGroup
	wakers.Add(procs)
	for p := 0; p < procs; p++ {
		go func() {
			defer wakers.Done()
			gate := make(chan struct{})
			var blocking, woken sync.WaitGroup
			blocking.Add(perP)
			woken.Add(perP)
			for i := 0; i < perP; i++ {
				go func() {
					blocking.Done()
					<-gate
					woken.Done()
				}()
			}
			blocking.Wait()
			runtime.Gosched() // the last of them from blocking.Done to gate
			spinning.Add(1)
			for spinning.Load() < int32(procs) {
				// No yield: a waker that gave up its P could share
				// another's. Preemption bounds the wait when there are
				// fewer CPUs than Ps.
			}
			close(gate)
			woken.Wait()
		}()
	}
	wakers.Wait()
}
