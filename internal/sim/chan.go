package sim

import "fractos/internal/assert"

// Chan is a typed FIFO channel between tasks, analogous to a Go
// channel but scheduled under the kernel's virtual clock. A capacity
// of zero means unbounded (sends never block); a positive capacity
// bounds the buffer and blocks senders when full.
//
// Because the kernel serializes task execution, Chan needs no internal
// locking; its operations must only be invoked from task context
// (except the Try* variants, which are also safe from kernel context).
type Chan[T any] struct {
	k      *Kernel
	name   string
	capa   int // 0 = unbounded
	buf    []T
	sendq  []*sendWaiter[T]
	recvq  []*recvWaiter[T]
	closed bool

	// closedMsg is the panic message for sends on a closed channel,
	// pre-built at construction so the Send hot path asserts without
	// formatting (assert.True instead of variadic assert.That).
	closedMsg string

	// freeRecv/freeSend recycle waiter structs across blocking
	// operations on this channel. Reuse is deterministic — waiter
	// identity is never observed, and contents are fully reset on reuse.
	freeRecv FreeList[recvWaiter[T]]
	freeSend FreeList[sendWaiter[T]]
}

type sendWaiter[T any] struct {
	t  *Task
	v  T
	ok bool // set true when the value has been accepted
}

type recvWaiter[T any] struct {
	t  *Task
	v  T
	ok bool // true if a value was delivered, false if channel closed
}

// NewChan creates a channel. capacity 0 means unbounded.
func NewChan[T any](k *Kernel, name string, capacity int) *Chan[T] {
	return &Chan[T]{k: k, name: name, capa: capacity,
		closedMsg: "sim: send on closed channel " + name}
}

// getRecv returns a recycled (or new) receive waiter for t.
func (c *Chan[T]) getRecv(t *Task) *recvWaiter[T] {
	rw := c.freeRecv.Get()
	*rw = recvWaiter[T]{t: t}
	return rw
}

// putRecv recycles a waiter whose wait has fully completed. The caller
// must guarantee no other reference to rw survives: the waker removes
// it from recvq before the task resumes.
func (c *Chan[T]) putRecv(rw *recvWaiter[T]) {
	var zero T
	rw.v = zero
	rw.t = nil
	c.freeRecv.Put(rw)
}

// getSend returns a recycled (or new) send waiter carrying v.
func (c *Chan[T]) getSend(t *Task, v T) *sendWaiter[T] {
	sw := c.freeSend.Get()
	*sw = sendWaiter[T]{t: t, v: v}
	return sw
}

// putSend recycles a send waiter whose wait has fully completed.
func (c *Chan[T]) putSend(sw *sendWaiter[T]) {
	var zero T
	sw.v = zero
	sw.t = nil
	c.freeSend.Put(sw)
}

// Len reports how many values are buffered.
func (c *Chan[T]) Len() int { return len(c.buf) }

// Close closes the channel: pending and future receives drain the
// buffer and then report ok=false; sends panic.
func (c *Chan[T]) Close() {
	if c.closed {
		return
	}
	c.closed = true
	// Wake all blocked receivers with ok=false (buffer is necessarily
	// empty if receivers are blocked).
	for _, w := range c.recvq {
		w.ok = false
		w.t.wakeAfter(0)
	}
	c.recvq = nil
	// Blocked senders on a closed channel is a programming error; wake
	// them so they can panic in their own context.
	for _, w := range c.sendq {
		w.ok = false
		w.t.wakeAfter(0)
	}
	c.sendq = nil
}

// Send delivers v, blocking while a bounded buffer is full.
//
//fractos:ordered
func (c *Chan[T]) Send(t *Task, v T) {
	assert.True(!c.closed, c.closedMsg)
	// Fast path: hand directly to a blocked receiver.
	if w := c.popRecv(); w != nil {
		w.v = v
		w.ok = true
		w.t.wakeAfter(0)
		return
	}
	if c.capa == 0 || len(c.buf) < c.capa {
		c.buf = append(c.buf, v) // buffer growth is amortized across the channel's lifetime
		return
	}
	// Bounded and full: block.
	sw := c.getSend(t, v)
	c.sendq = append(c.sendq, sw) // parked waiter; the waker unlinks it from sendq before putSend reuses it
	t.park()
	ok := sw.ok
	c.putSend(sw)
	assert.True(ok, c.closedMsg)
}

// TrySend delivers v without blocking. It reports false if a bounded
// buffer is full or the channel is closed. Safe from kernel context.
//
//fractos:ordered
func (c *Chan[T]) TrySend(v T) bool {
	if c.closed {
		return false
	}
	if w := c.popRecv(); w != nil {
		w.v = v
		w.ok = true
		w.t.wakeAfter(0)
		return true
	}
	if c.capa == 0 || len(c.buf) < c.capa {
		c.buf = append(c.buf, v) // buffer growth is amortized across the channel's lifetime
		return true
	}
	return false
}

// Recv blocks until a value is available. ok is false if the channel
// was closed and drained.
func (c *Chan[T]) Recv(t *Task) (v T, ok bool) {
	if len(c.buf) > 0 {
		return c.takeBuffered(), true
	}
	if c.closed {
		return v, false
	}
	rw := c.getRecv(t)
	c.recvq = append(c.recvq, rw) // parked waiter; whoever wakes the task unlinks it from recvq — a sender or Close — before putRecv reuses it
	t.park()
	v, ok = rw.v, rw.ok
	c.putRecv(rw)
	return v, ok
}

// TryRecv receives without blocking; ok is false if nothing was
// available. Safe from kernel context.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	if len(c.buf) > 0 {
		return c.takeBuffered(), true
	}
	var zero T
	return zero, false
}

// takeBuffered pops the oldest buffered value. Queues pop by shifting
// in place rather than re-slicing c.buf[1:]: a drifting slice base
// would make every later append reallocate (the freed prefix can
// never be reused), which showed up as thousands of allocations per
// run in the delivery path. Queues are short, so the shift is cheap.
func (c *Chan[T]) takeBuffered() T {
	v := c.buf[0]
	n := copy(c.buf, c.buf[1:])
	var zero T
	c.buf[n] = zero
	c.buf = c.buf[:n]
	// A freed slot may admit a blocked sender.
	if len(c.sendq) > 0 && (c.capa == 0 || len(c.buf) < c.capa) {
		sw := c.sendq[0]
		m := copy(c.sendq, c.sendq[1:])
		c.sendq[m] = nil
		c.sendq = c.sendq[:m]
		sw.ok = true
		c.buf = append(c.buf, sw.v) // slot was just vacated; append reuses the freed capacity
		sw.t.wakeAfter(0)
	}
	return v
}

// popRecv dequeues the oldest receive waiter, shifting in place (see
// takeBuffered) so the queue's backing array stays reusable.
func (c *Chan[T]) popRecv() *recvWaiter[T] {
	if len(c.recvq) == 0 {
		return nil
	}
	w := c.recvq[0]
	n := copy(c.recvq, c.recvq[1:])
	c.recvq[n] = nil
	c.recvq = c.recvq[:n]
	return w
}
