package sim

import (
	"runtime"
	"sync"
)

// A goroutine blocked on a channel holds one of the Go runtime's wait
// records (runtime.sudog) from the moment it blocks until it runs
// again. The runtime keeps freed records in a cache per P and allocates
// one only when the blocking goroutine's P has none; a record taken on
// one P is freed on whichever P the goroutine wakes up on. A kernel and
// its tasks block and wake millions of times, nearly always on one P,
// but each time the scheduler moves that chain to another P the records
// of the tasks parked meanwhile move with it, and a P left with an empty
// cache allocates on its next turn. Those are the only allocations of a
// task switch, a handful in millions, and how many land in a given
// stretch of a run depends on the host's scheduling alone — enough to
// blur an allocation count that is otherwise exact (copy-bulk's
// host_allocs_per_req: 74 allocations in 150 000 requests, plus 1 to 14
// of these).
//
// warmParking, run once before the first kernel, gives every P a
// reserve: 64 goroutines per P block at once, so that many records
// exist, and are freed into the per-P caches (128 each, kept across
// garbage collections) as they wake. Which P runs how many is up to the
// scheduler; yielding a few times after waking keeps the woken runnable
// for long enough that idle Ps take their share.
var parkWarm sync.Once

func warmParking() {
	n := 64 * runtime.GOMAXPROCS(0)
	gate := make(chan struct{})
	var blocking, woken sync.WaitGroup
	blocking.Add(n)
	woken.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			blocking.Done()
			<-gate
			for j := 0; j < 4; j++ {
				runtime.Gosched()
			}
			woken.Done()
		}()
	}
	blocking.Wait()
	runtime.Gosched() // the last of them from blocking.Done to gate
	close(gate)
	woken.Wait()
}
