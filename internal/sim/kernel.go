// Package sim implements a deterministic discrete-event simulation
// kernel. FractOS entities that block (applications, adaptors, devices)
// run as cooperatively scheduled actors ("tasks") under a virtual
// clock; those that only react (Controllers, receive demultiplexers)
// and operations that wait only for their own events (a memory copy, a
// Call) run in kernel context as Callbacks, scheduled with AfterCall
// and withdrawn again through the Timer it returns. Exactly one task
// executes at any moment; control is handed between the kernel and
// tasks over channels, so task code can be written in a natural
// blocking style while the simulation stays deterministic and
// race-free.
//
// Two runs of the same program over the same kernel produce identical
// event orders and identical virtual timestamps.
//
// Hot-path design (see docs/PERFORMANCE.md): events are slab-allocated
// pooled structs ordered by a concrete 4-ary index heap; events
// scheduled for the current instant bypass the heap through a FIFO run
// queue; task goroutines are pooled trampolines (taskpool.go) resumed
// over a per-task handoff channel and yielding through a single shared
// channel, which lets a parking task hand control directly to the next
// runnable task without a round trip through the kernel goroutine.
// None of this changes the event order contract above — the merged pop
// order is exactly the global (timestamp, sequence) order the original
// binary heap produced.
package sim

import (
	"sort"
	"sync/atomic"
	"time"
)

// totalEvents counts every event processed by any kernel in the
// process: the benchmark's events per request and the event gates in
// bench_test.go are differences of it. It is flushed in batches at the
// end of each run loop so the hot path pays only a register increment;
// simulation behavior never reads it, so determinism is unaffected.
var totalEvents atomic.Uint64

// TotalEvents returns the process-wide count of simulation events
// processed so far. Subtract two readings around a workload to get
// its event count.
func TotalEvents() uint64 { return totalEvents.Load() }

// Time is a virtual timestamp, measured in nanoseconds since the start
// of the simulation. It deliberately mirrors time.Duration so that
// durations and timestamps compose with ordinary arithmetic.
type Time = time.Duration

// Callback is a typed event target: Fire runs in kernel context when
// the event scheduled with AfterCall comes due, and must not block.
// Per-message machinery (the fabric's frames, pending calls, copies in
// progress) implements it on pooled structs, so scheduling an
// occurrence costs no closure allocation; a pointer stored in the
// interface is free.
type Callback interface {
	Fire()
}

// funcCall adapts a plain closure to Callback. Func values are
// pointer-shaped, so the conversion does not allocate.
type funcCall func()

func (f funcCall) Fire() { f() }

// event is a scheduled occurrence: either waking a parked task or
// firing a callback in kernel context. Events are pooled by the
// kernel; user code never sees them.
type event struct {
	at   Time
	seq  uint64   // tiebreaker: FIFO among events at the same instant
	task *Task    // non-nil: wake this task
	cb   Callback // non-nil: fire in kernel context (must not block)
	pos  int32    // heap index; posRunq while in the run queue, posFree otherwise
}

const (
	posFree int32 = -1 // not queued (free list or in flight)
	posRunq int32 = -2 // in the same-instant run queue
)

// eventHeap is a concrete 4-ary min-heap of events ordered by
// (at, seq). Compared to container/heap it avoids interface boxing,
// halves the tree depth, and tracks element positions so stale wakes
// can be removed in place.
type eventHeap struct {
	es []*event
}

func (h *eventHeap) len() int { return len(h.es) }

func evLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e *event) {
	h.es = append(h.es, e) // heap backing growth is amortized
	h.up(len(h.es) - 1)
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() *event {
	e := h.es[0]
	n := len(h.es) - 1
	last := h.es[n]
	h.es[n] = nil
	h.es = h.es[:n]
	if n > 0 {
		h.es[0] = last
		last.pos = 0
		h.down(0)
	}
	e.pos = posFree
	return e
}

// remove deletes an arbitrary event from the heap by its tracked
// position (stale-wake cancellation).
func (h *eventHeap) remove(e *event) {
	i := int(e.pos)
	n := len(h.es) - 1
	last := h.es[n]
	h.es[n] = nil
	h.es = h.es[:n]
	if i < n {
		h.es[i] = last
		last.pos = int32(i)
		h.down(i)
		h.up(int(last.pos))
	}
	e.pos = posFree
}

func (h *eventHeap) up(i int) {
	es := h.es
	e := es[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !evLess(e, es[p]) {
			break
		}
		es[i] = es[p]
		es[i].pos = int32(i)
		i = p
	}
	es[i] = e
	e.pos = int32(i)
}

func (h *eventHeap) down(i int) {
	es := h.es
	n := len(es)
	e := es[i]
	for {
		c := i<<2 + 1 // first child
		if c >= n {
			break
		}
		// Find the smallest of up to four children.
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if evLess(es[j], es[m]) {
				m = j
			}
		}
		if !evLess(es[m], e) {
			break
		}
		es[i] = es[m]
		es[i].pos = int32(i)
		i = m
	}
	es[i] = e
	e.pos = int32(i)
}

// eventRing is the same-instant FIFO run queue: a power-of-two ring
// buffer of events whose timestamp equals the current virtual time.
// Pushing and popping are O(1) with no ordering work at all.
type eventRing struct {
	buf  []*event
	head int
	n    int
}

func (r *eventRing) push(e *event) {
	if r.n == len(r.buf) {
		r.grow() // ring doubling is amortized; steady state never grows
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = e
	r.n++
}

func (r *eventRing) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 16
	}
	nb := make([]*event, size)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = nb
	r.head = 0
}

func (r *eventRing) front() *event { return r.buf[r.head] }

func (r *eventRing) popFront() *event {
	e := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	e.pos = posFree
	return e
}

// killSignal unwinds a task goroutine during Kernel.Shutdown.
type killSignal struct{}

// Kernel is a discrete-event scheduler. Create one with New, populate
// it with Spawn, and drive it with Run.
//
// A Kernel is not safe for concurrent use from multiple OS threads;
// all interaction must happen either from the goroutine that calls
// Run, or from within task functions (which are serialized by the
// kernel itself).
type Kernel struct {
	now      Time
	seq      uint64
	heap     eventHeap
	runq     eventRing
	free     []*event // pooled event structs
	slab     []event  // slab the free list refills from, carved one struct at a time
	running  *Task
	tasks    map[uint64]*Task
	nextID   uint64
	stopped  bool
	panicVal any // a task's panic or Goexit, for Run to re-panic with

	// yield is the shared task→kernel handoff: whichever task ends a
	// run burst (parks with nothing else runnable at this instant, or
	// finishes) sends one token here to return control to the loop.
	// Resumes stay per-task over Task.hand.
	yield chan struct{}

	// processed accumulates popped events across loop iterations and
	// same-instant fast-path switches (Task.park); flushed into the
	// process-wide totalEvents counter when a run loop exits.
	processed uint64

	pools []tracked // Track's, for Unparked
}

// New returns an empty kernel with its virtual clock at zero. Nothing
// reads seed: the kernel draws no randomness, and the parameter stays
// only because the benchmark module passes one (ROADMAP item 14(f)).
func New(seed int64) *Kernel {
	parkWarm.Do(warmParking)
	return &Kernel{
		tasks: make(map[uint64]*Task),
		yield: make(chan struct{}),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Task is the handle a spawned function uses to interact with the
// kernel: sleeping, reading the clock, and (via Chan and Future)
// blocking on communication. A Task handle is only valid inside the
// goroutine it was passed to.
type Task struct {
	k    *Kernel
	id   uint64
	name string
	fn   func(t *Task)
	// hand resumes the task: the kernel (or a directly switching
	// sibling task) sends one token here; the task blocks receiving.
	// Yields go the other way over the kernel's shared yield channel.
	hand   chan struct{}
	wake   *event // pending wake event, nil if none queued
	done   bool
	killed bool
}

// ID returns the task's unique id, assigned in spawn order.
func (t *Task) ID() uint64 { return t.id }

// Kernel returns the kernel this task runs under.
func (t *Task) Kernel() *Kernel { return t.k }

// Now returns the current virtual time.
func (t *Task) Now() Time { return t.k.now }

// Spawn creates a new task executing fn and schedules it to start at
// the current virtual time. It may be called from kernel context
// (before Run, or inside an After closure) or from task context.
// Task structs and their trampoline goroutines come from a pooled
// free list (taskpool.go), so steady-state Spawn allocates nothing.
//
//fractos:ordered
func (k *Kernel) Spawn(name string, fn func(t *Task)) *Task {
	k.nextID++
	t := getTask()
	t.k, t.id, t.name, t.fn = k, k.nextID, name, fn
	t.done, t.killed = false, false
	k.tasks[t.id] = t // task table and trampoline share ownership; exec unlinks before the trampoline repools
	t.wake = k.schedule(k.now, t, nil)
	return t
}

// fail records a task's panic or Goexit; Run re-panics with v.
func (k *Kernel) fail(v any) {
	if k.panicVal == nil {
		k.panicVal = v
	}
}

// alloc takes an event struct from the pool. Refills carve a slab of
// events in one allocation rather than allocating structs one by one.
func (k *Kernel) alloc() *event {
	if n := len(k.free); n > 0 {
		e := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return e
	}
	if len(k.slab) == 0 {
		k.slab = make([]event, 64) // slab refill: one allocation per 64 events
	}
	e := &k.slab[0]
	k.slab = k.slab[1:]
	e.pos = posFree
	return e
}

// release resets an event and returns it to the pool.
func (k *Kernel) release(e *event) {
	e.task = nil
	e.cb = nil
	e.pos = posFree
	k.free = append(k.free, e) // free-list growth is amortized
}

// schedule queues an occurrence at time at. Same-instant events take
// the FIFO run-queue fast path; future events go through the heap.
func (k *Kernel) schedule(at Time, t *Task, cb Callback) *event {
	e := k.alloc()
	k.seq++
	e.at, e.seq, e.task, e.cb = at, k.seq, t, cb
	if at == k.now {
		e.pos = posRunq
		k.runq.push(e)
	} else {
		k.heap.push(e)
	}
	return e // the queue owns e after push; the returned handle exists only so cancel can find it
}

// cancel drops a queued event: removed in place from the heap, or
// tombstoned in the run queue (reclaimed on pop).
func (k *Kernel) cancel(e *event) {
	if e.pos >= 0 {
		k.heap.remove(e)
		k.release(e)
		return
	}
	if e.pos == posRunq {
		e.task = nil
		e.cb = nil
	}
}

// After schedules fn to run in kernel context at now+d. fn must not
// block; to perform blocking work, have fn call Spawn.
//
//fractos:ordered
func (k *Kernel) After(d Time, fn func()) {
	k.AfterCall(d, funcCall(fn))
}

// AfterCall schedules cb.Fire to run in kernel context at now+d. It is
// After for typed targets: the event carries cb itself, so a caller
// that keeps its per-occurrence state in a pooled struct schedules
// without allocating. The returned Timer withdraws the event again; a
// caller that never cancels ignores it.
//
//fractos:ordered
func (k *Kernel) AfterCall(d Time, cb Callback) Timer {
	if d < 0 {
		d = 0
	}
	e := k.schedule(k.now+d, nil, cb)
	return Timer{k: k, e: e, seq: e.seq}
}

// Timer is the handle of one AfterCall event, for the caller that may
// have to withdraw it: a deadline that was met, a retransmission that
// was answered. Events are pooled, so the handle names its event by
// sequence number as well as by pointer: once the event has fired or
// been stopped — and its struct perhaps reused for somebody else's —
// the handle is inert. The zero Timer is inert too.
type Timer struct {
	k   *Kernel
	e   *event
	seq uint64
}

// Stop withdraws the event if it is still pending and reports whether
// it was: removed in place from the heap, so a stopped timer costs no
// event at all (one scheduled for the current instant is tombstoned in
// the run queue and reclaimed on pop, like a task's stale wake).
func (tm Timer) Stop() bool {
	e := tm.e
	if e == nil || e.seq != tm.seq || e.cb == nil {
		return false
	}
	tm.k.cancel(e)
	return true
}

// park blocks the calling task until the kernel wakes it.
// Must be called from the running task's goroutine.
//
// Fast path: if the next event in global (at, seq) order is another
// task's wake at the current instant, control switches directly to
// that task — one channel operation instead of two round trips
// through the kernel goroutine. If it is the calling task's own wake
// (Sleep(0) with nothing else runnable), park returns without blocking
// at all. The pop here follows exactly the selection rule of the run
// loop, so event order is byte-identical with the fast path on or off.
func (t *Task) park() {
	k := t.k
	for k.runq.n > 0 && !k.stopped && k.panicVal == nil &&
		(k.heap.len() == 0 || k.heap.es[0].at != k.now) {
		e := k.runq.front()
		nt := e.task
		if nt == nil {
			if e.cb != nil {
				break // kernel-context callback: the run loop must fire it
			}
			k.runq.popFront() // cancelled tombstone: reclaim and keep scanning
			k.processed++
			k.release(e)
			continue
		}
		if nt.done {
			break // stale wake: let the run loop discard it
		}
		k.runq.popFront()
		k.processed++
		if nt.wake == e {
			nt.wake = nil
		}
		k.release(e)
		if nt == t {
			return // our own wake is next: keep running, no switch at all
		}
		k.running = nt
		nt.hand <- struct{}{} // direct task-to-task switch
		<-t.hand
		if t.killed {
			//fractos:panic-ok cooperative kill: caught by the task trampoline's recover
			panic(killSignal{})
		}
		return
	}
	k.yield <- struct{}{} // nothing runnable here: return control to the run loop
	<-t.hand
	if t.killed {
		//fractos:panic-ok cooperative kill: caught by the task trampoline's recover
		panic(killSignal{})
	}
}

// wakeAfter marks t runnable at now+d. If a wake is already queued for
// the task (it is being re-scheduled), the stale event is dropped from
// the queue instead of leaking until pop: the latest wake wins.
//
//fractos:ordered
func (t *Task) wakeAfter(d Time) {
	if t.wake != nil {
		t.k.cancel(t.wake)
		t.wake = nil
	}
	t.wake = t.k.schedule(t.k.now+d, t, nil)
}

// Sleep suspends the task for d of virtual time.
//
//fractos:yield
func (t *Task) Sleep(d Time) {
	if d <= 0 {
		// Even a zero-length sleep is a scheduling point: other work
		// queued at this instant runs first.
		d = 0
	}
	t.wakeAfter(d)
	t.park()
}

// Run executes events until the queue is empty. It returns the final
// virtual time. Run must be called from the goroutine that created the
// kernel.
func (k *Kernel) Run() Time {
	defer k.flushProcessed()
	for (k.runq.n > 0 || k.heap.len() > 0) && !k.stopped {
		// Choose the next event in global (at, seq) order. Run-queue
		// entries all carry the current timestamp and were sequenced
		// after every same-instant heap entry, so the heap goes first
		// only while its minimum is at the current instant.
		var e *event
		fromHeap := k.runq.n == 0 || (k.heap.len() > 0 && k.heap.es[0].at == k.now)
		if fromHeap {
			e = k.heap.es[0]
		} else {
			e = k.runq.front()
		}
		if fromHeap {
			k.heap.pop()
		} else {
			k.runq.popFront()
		}
		k.processed++
		if e.at > k.now {
			k.now = e.at
		}
		switch {
		case e.task != nil:
			t := e.task
			if t.wake == e {
				t.wake = nil
			}
			k.release(e)
			if t.done {
				continue // stale wake for a finished task
			}
			k.running = t
			t.hand <- struct{}{}
			<-k.yield
			k.running = nil
			if v := k.panicVal; v != nil {
				k.panicVal = nil
				//fractos:panic-ok re-surfacing a task's panic on the driver goroutine
				panic(v)
			}
		case e.cb != nil:
			cb := e.cb
			k.release(e)
			cb.Fire()
		default:
			// Tombstone from a cancelled run-queue entry.
			k.release(e)
		}
	}
	return k.now
}

// RunCatching is Run for a test harness: a task that leaves through
// runtime.Goexit ends the run, and RunCatching returns why instead of
// panicking, so that the failed test — which has logged its own reason —
// fails alone. It returns "" when the run ends otherwise; any other panic
// goes on.
func (k *Kernel) RunCatching() (quit string) {
	defer func() {
		if v := recover(); v != nil {
			g, ok := v.(goexit)
			if !ok {
				//fractos:panic-ok not a task's Goexit: the run's own panic, passed on
				panic(v)
			}
			quit = string(g)
		}
	}()
	k.Run()
	return ""
}

// flushProcessed publishes the batched event count to the global
// counter when a run loop exits.
func (k *Kernel) flushProcessed() {
	totalEvents.Add(k.processed)
	k.processed = 0
}

// Live reports how many tasks exist (runnable or blocked).
func (k *Kernel) Live() int { return len(k.tasks) }

// Shutdown forcibly unwinds every remaining task goroutine. It must be
// called from kernel context (after Run returns). The kernel must not
// be used afterwards.
func (k *Kernel) Shutdown() {
	// Stopping first disables park's direct-switch fast path, so every
	// unwinding task returns control here rather than resuming stale
	// run-queue work.
	k.stopped = true
	if len(k.tasks) == 0 {
		return // nothing to unwind (and no id-slice/sort allocation)
	}
	// Collect ids first: unwinding mutates k.tasks. Deterministic
	// order (ids are spawn-ordered).
	ids := make([]uint64, 0, len(k.tasks))
	for id := range k.tasks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		t, ok := k.tasks[id]
		if !ok || t.done {
			continue
		}
		t.killed = true
		t.hand <- struct{}{}
		<-k.yield
	}
}
