package sim

// FreeList is a LIFO free list of *T for the per-message records of a
// single-threaded owner (a Net's in-flight frames, a Controller's
// pending calls, a Process's syscall futures). It is deliberately not
// a sync.Pool: the owner runs under one kernel, so there is nothing to
// synchronize, reuse order is a deterministic function of the
// simulation, and the list never shrinks behind the owner's back — its
// length is bounded by the owner's peak number of records in flight,
// not by how many operations it has performed.
//
// Get hands out a record exactly as the last Put left it; owners clear
// a record before putting it back, so a stale reference reads zeroes
// instead of the next user's state. The owner's get/put wrappers carry
// the //fractos:pool-* annotations poolcheck verifies.
type FreeList[T any] struct {
	free []*T
}

// Get pops a recycled record, or allocates one when the list is empty.
func (l *FreeList[T]) Get() *T {
	if n := len(l.free); n > 0 {
		v := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return v
	}
	return new(T) // cold refill; steady state recycles through Put
}

// Put returns a record to the list. The caller must hold the only
// remaining reference.
func (l *FreeList[T]) Put(v *T) {
	l.free = append(l.free, v) // free-list growth is amortized
}

// Len reports how many records are parked on the list.
func (l *FreeList[T]) Len() int { return len(l.free) }
