package sim

import "fmt"

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
// instead of the next user's state. The list counts the records it has
// lent, Get − Put − Drop: a kernel-context pool the owner registers with
// Kernel.Track has every record back at the end of a run.
type FreeList[T any] struct {
	free []*T
	lent int
}

// Get pops a recycled record, or allocates one when the list is empty.
func (l *FreeList[T]) Get() *T {
	l.lent++
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
	l.lent--
	l.free = append(l.free, v) // free-list growth is amortized
}

// Drop counts a record as returned without parking it: the race build
// quarantines released records instead of recycling them.
func (l *FreeList[T]) Drop() { l.lent-- }

// Len reports how many records are parked on the list.
func (l *FreeList[T]) Len() int { return len(l.free) }

// Lent reports how many records are out of the list.
func (l *FreeList[T]) Lent() int { return l.lent }

// tracked is a pool the end-of-run audit reads.
type tracked struct {
	name string
	pool interface{ Lent() int }
}

// Track names a pool of records that kernel context lends out, for
// Unparked. Owners register at construction.
func (k *Kernel) Track(name string, pool interface{ Lent() int }) {
	k.pools = append(k.pools, tracked{name, pool})
}

// Unparked names every tracked pool that has records lent, with their
// count ("controller 1 pendingCall 2, nvme ioOp 1"), in registration
// order; it is "" when all are parked. Once Run has returned, a record
// still lent is one nothing will release.
func (k *Kernel) Unparked() string {
	s := ""
	for _, p := range k.pools {
		if n := p.pool.Lent(); n != 0 {
			if s != "" {
				s += ", "
			}
			s += fmt.Sprintf("%s %d", p.name, n)
		}
	}
	return s
}
