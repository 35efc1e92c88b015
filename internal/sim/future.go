package sim

import "fractos/internal/assert"

// Future is a single-assignment value that tasks can wait on. FractOS
// syscalls are fully asynchronous (posted to a message channel); the
// Process library wraps them in Futures to offer synchronous-looking
// APIs, mirroring the promise/future library the paper's C++ prototype
// built for the same purpose.
//
// The zero value is an unresolved future, so owners that recycle
// futures (Reset) can keep them in a FreeList.
type Future[T any] struct {
	done bool
	val  T
	err  error
	// first is the earliest waiter, held inline: almost every future
	// has exactly one (the task that issued the operation), so parking
	// on it allocates nothing. Later waiters queue behind it in more.
	first *Task
	more  []*Task
}

// NewFuture creates an unresolved future.
func NewFuture[T any]() *Future[T] {
	return &Future[T]{}
}

// Done reports whether the future has been resolved.
func (f *Future[T]) Done() bool { return f.done }

// Set resolves the future with a value, waking all waiters. Resolving
// twice panics: a future is a single-assignment cell.
//
//fractos:ordered
func (f *Future[T]) Set(v T) { f.resolve(v, nil) }

// Fail resolves the future with an error.
//
//fractos:ordered
func (f *Future[T]) Fail(err error) {
	var zero T
	f.resolve(zero, err)
}

// Due stores v and returns the event target that resolves the future
// with it, so k.AfterCall(d, f.Due(v)) is a modeled-latency completion
// (an RDMA op finishing on the wire) as one kernel event aimed at the
// future itself, with no closure in between.
func (f *Future[T]) Due(v T) Callback {
	f.val = v
	return (*dueFuture[T])(f)
}

// dueFuture is Future as the event target Due returns; a separate
// type keeps Fire out of Future's method set.
type dueFuture[T any] Future[T]

func (d *dueFuture[T]) Fire() {
	f := (*Future[T])(d)
	f.resolve(f.val, nil)
}

// Reset returns a resolved future to the unresolved state so its
// owner can reuse it for the next operation. Every task that waited
// has already been woken by then; resetting a future that still has
// parked waiters is a bug.
func (f *Future[T]) Reset() {
	assert.That(f.first == nil && len(f.more) == 0, "sim: future reset with parked waiters")
	var zero T
	f.done, f.val, f.err = false, zero, nil
}

func (f *Future[T]) resolve(v T, err error) {
	assert.True(!f.done, "sim: future resolved twice")
	f.done = true
	f.val = v
	f.err = err
	if f.first != nil {
		f.first.wakeAfter(0)
		f.first = nil
	}
	for i, t := range f.more {
		t.wakeAfter(0)
		f.more[i] = nil
	}
	f.more = f.more[:0]
}

// enqueue registers t as a waiter, in arrival order.
func (f *Future[T]) enqueue(t *Task) {
	if f.first == nil {
		f.first = t
		return
	}
	f.more = append(f.more, t)
}

// Wait blocks the task until the future resolves, then returns its
// value and error.
func (f *Future[T]) Wait(t *Task) (T, error) {
	for !f.done {
		f.enqueue(t)
		t.park()
	}
	return f.val, f.err
}

// ErrTimeout is returned by WaitTimeout when the deadline passes
// before the future resolves.
var ErrTimeout = errTimeout{}

type errTimeout struct{}

func (errTimeout) Error() string { return "sim: wait timed out" }

// WaitTimeout is Wait with a virtual-time deadline. On timeout the
// future stays unresolved and may be waited on again later. The
// deadline is the task's own wake, queued d ahead: a resolve replaces
// it with a wake for now (wakeAfter drops the one it supersedes from
// the heap), so a wait that is answered in time leaves no event behind.
func (f *Future[T]) WaitTimeout(t *Task, d Time) (T, error) {
	if f.done {
		return f.val, f.err
	}
	f.enqueue(t)
	t.wakeAfter(max(d, 0))
	t.park()
	if f.done {
		return f.val, f.err
	}
	f.dequeue(t)
	var zero T
	return zero, ErrTimeout
}

// dequeue withdraws t, whose wait timed out, from the waiters.
func (f *Future[T]) dequeue(t *Task) {
	if f.first == t {
		f.first = nil
		if len(f.more) > 0 {
			f.first = f.more[0]
			f.more = f.more[:copy(f.more, f.more[1:])]
		}
		return
	}
	for i, w := range f.more {
		if w == t {
			f.more = append(f.more[:i], f.more[i+1:]...)
			return
		}
	}
}

// WaitGroup counts outstanding work items, like sync.WaitGroup but
// under virtual time.
type WaitGroup struct {
	n       int
	waiters []*Task
}

// Add increments the counter by delta.
func (wg *WaitGroup) Add(delta int) {
	wg.n += delta
	assert.That(wg.n >= 0, "sim: negative WaitGroup counter")
	if wg.n == 0 {
		wg.wakeAll()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks until the counter reaches zero.
func (wg *WaitGroup) Wait(t *Task) {
	for wg.n > 0 {
		wg.waiters = append(wg.waiters, t)
		t.park()
	}
}

func (wg *WaitGroup) wakeAll() {
	for _, t := range wg.waiters {
		t.wakeAfter(0)
	}
	wg.waiters = nil
}

// Semaphore is a counting semaphore under virtual time: the bound on
// what an application keeps in progress at once (its request slots).
type Semaphore struct {
	avail   int
	waiters []*Task
}

// NewSemaphore creates a semaphore with n initial permits.
func NewSemaphore(n int) *Semaphore { return &Semaphore{avail: n} }

// Acquire takes one permit, blocking while none are available.
func (s *Semaphore) Acquire(t *Task) {
	for s.avail <= 0 {
		s.waiters = append(s.waiters, t)
		t.park()
	}
	s.avail--
}

// Release returns one permit and wakes a waiter if any. The queue pops
// by shifting in place and clearing the vacated slot, like Chan's
// (takeBuffered): re-slicing it drifts through the backing array, so
// every later Acquire that queues reallocates it.
func (s *Semaphore) Release() {
	s.avail++
	if len(s.waiters) > 0 {
		w := s.waiters[0]
		n := copy(s.waiters, s.waiters[1:])
		s.waiters[n] = nil
		s.waiters = s.waiters[:n]
		w.wakeAfter(0)
	}
}
