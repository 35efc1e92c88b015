package sim

import (
	"fmt"
	"sort"

	"fractos/internal/assert"
)

// Partition-parallel simulation: an Engine drives N shard kernels,
// each owning a disjoint subset of the simulated world (tasks, nodes,
// channels), under conservative-lookahead parallel discrete-event
// simulation (PDES).
//
// The synchronization protocol is barrier-synchronous conservative
// windowing. Each round the coordinator computes the global window
//
//	W = min(next event time across all shards) + lookahead
//
// and dispatches every shard with pending work below W to run its
// events with timestamp < W in parallel. Cross-shard interactions are
// timestamped posts (Kernel.Post) buffered in per-destination
// outboxes; at the barrier the coordinator merges each destination's
// inbound posts in (timestamp, source shard, source sequence) order —
// extending the kernel's (at, seq) evLess tie-break with the shard ID
// — and schedules them. A post sent at time s arrives at s+d with
// d >= lookahead, so its timestamp is >= next_min + lookahead = W,
// strictly after anything any shard processed this round: no shard
// ever receives a message in its past, which is the conservative-PDES
// safety invariant. Idle shards are safe too — a revived shard's
// first event is a delivery at >= W, so it can only send even later.
//
// Determinism: each shard is internally sequential; each outbox is
// filled in that deterministic order; the barrier merge is sorted by
// a total order; and deliveries are scheduled single-threaded in
// shard index order. Execution is therefore independent of GOMAXPROCS
// and of which OS thread runs which window. Whether the *trace* is
// also identical across different shard counts depends on the
// workload partitioning: with ShardCount=1 everything runs on shard 0
// and reproduces the single-kernel schedule exactly, and workloads
// whose cross-shard messages never collide on the same (destination,
// timestamp) produce byte-identical traces at any shard count (see
// internal/fabric.Mesh and docs/PERFORMANCE.md).
type Engine struct {
	shards    []*Kernel
	lookahead Time

	work  []chan Time // per-shard window dispatch; nil until the first parallel window
	done  chan wdone
	merge []xpost // reusable barrier merge buffer
	ready []int32 // reusable per-round dispatch list
}

// xpost is one cross-shard message: run fn on the destination shard
// at virtual time at.
type xpost struct {
	at  Time
	src int32  // sending shard, second merge key
	seq uint64 // sender-local sequence, third merge key
	fn  func()
}

// wdone reports one shard window's completion to the barrier.
type wdone struct {
	shard int
	msg   string // non-empty: panic propagated from the shard
}

// DefaultLookahead is the engine's lookahead before SetLookahead is
// called: deliberately conservative (correct for any workload, if
// slower than a fabric-derived value).
const DefaultLookahead = Time(1000) // 1µs

// NewEngine builds an engine with n shard kernels. Shard 0 is seeded
// with seed itself, so a 1-shard engine's kernel is indistinguishable
// from New(seed); other shards get independent streams split from the
// seed with a SplitMix64 step.
func NewEngine(seed int64, n int) *Engine {
	if n < 1 {
		n = 1
	}
	e := &Engine{lookahead: DefaultLookahead}
	e.shards = make([]*Kernel, n)
	for i := 0; i < n; i++ {
		k := New(shardSeed(seed, i))
		k.eng, k.shard = e, i
		k.outbox = make([][]xpost, n)
		e.shards[i] = k
	}
	return e
}

// shardSeed splits one seed into per-shard deterministic streams.
// Shard 0 keeps the original seed (single-shard equivalence); others
// run it through a SplitMix64 finalizer offset by the shard index.
func shardSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	z := uint64(seed) + uint64(i)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Shards reports the number of shard kernels.
func (e *Engine) Shards() int { return len(e.shards) }

// Shard returns shard i's kernel. Spawning onto a shard partitions
// the workload; all of a task's state must stay shard-local, with
// cross-shard effects expressed through Post (the simdet analyzer
// flags common violations).
func (e *Engine) Shard(i int) *Kernel { return e.shards[i] }

// Lookahead returns the current cross-shard lookahead window.
func (e *Engine) Lookahead() Time { return e.lookahead }

// SetLookahead sets the minimum cross-shard message latency the
// windowing protocol may assume. Larger values widen the parallel
// windows; every Post must then respect d >= lookahead. Must be set
// before Run and never changed mid-run.
func (e *Engine) SetLookahead(d Time) {
	assert.That(d >= 1, "sim: lookahead must be positive, got %d", d)
	e.lookahead = d
}

// ShardID reports which engine shard this kernel is (0 for a
// standalone kernel).
func (k *Kernel) ShardID() int { return k.shard }

// Engine returns the owning engine, or nil for a standalone kernel.
func (k *Kernel) Engine() *Engine { return k.eng }

// Post schedules fn to run at now+d on shard dst's kernel. It is the
// only legal cross-shard interaction and must be called from the
// sending kernel's own context. Same-shard posts schedule directly;
// cross-shard posts must respect d >= lookahead and are delivered at
// the next window barrier.
//
//fractos:hotpath
func (k *Kernel) Post(dst int, d Time, fn func()) {
	e := k.eng
	assert.True(e != nil, "sim: Post on a kernel without an engine")
	if dst == k.shard {
		k.schedule(k.now+d, nil, funcCall(fn))
		return
	}
	assert.True(d >= e.lookahead, "sim: cross-shard post under the lookahead window")
	k.postSeq++
	k.outbox[dst] = append(k.outbox[dst], // fractos:alloc-ok outbox growth is amortized; drained (not freed) at barriers
		xpost{at: k.now + d, src: int32(k.shard), seq: k.postSeq, fn: fn})
}

// Run drives all shards until every event queue is empty or a shard
// stops. It returns the latest shard clock. Like Kernel.Run it must
// be called from the goroutine that created the engine; task panics
// re-surface here (lowest shard index first when windows of several
// shards panic in the same round).
func (e *Engine) Run() Time {
	if len(e.shards) == 1 {
		// Degenerate engine: every post is same-shard (scheduled
		// directly), so the plain sequential loop is exact.
		return e.shards[0].Run()
	}
	for {
		stopped := false
		next := maxTime
		ready := e.ready[:0]
		for i, k := range e.shards {
			if k.stopped {
				stopped = true
			}
			if at, ok := k.nextAt(); ok {
				if at < next {
					next = at
				}
				ready = append(ready, int32(i)) // fractos:alloc-ok dispatch-list growth is amortized (reused each round)
			}
		}
		e.ready = ready
		if stopped || next == maxTime {
			break
		}
		w := next + e.lookahead
		dispatched := 0
		for _, i := range ready {
			if at, ok := e.shards[i].nextAt(); ok && at < w {
				ready[dispatched] = i
				dispatched++
			}
		}
		assert.That(dispatched > 0, "sim: conservative window made no progress (lookahead %d)", e.lookahead)
		if dispatched == 1 {
			// One shard has work below the window (e.g. an unsharded
			// workload resident on shard 0): run it inline rather than
			// bouncing the window through a worker thread.
			if msg := e.shards[ready[0]].windowSafe(w); msg != "" {
				//fractos:panic-ok re-surfacing a shard task's panic on the driver goroutine
				panic(msg)
			}
		} else {
			e.startWorkers()
			for _, i := range ready[:dispatched] {
				e.work[i] <- w
			}
			panicShard, panicMsg := -1, ""
			for i := 0; i < dispatched; i++ {
				r := <-e.done
				if r.msg != "" && (panicShard < 0 || r.shard < panicShard) {
					panicShard, panicMsg = r.shard, r.msg
				}
			}
			if panicShard >= 0 {
				//fractos:panic-ok re-surfacing a shard task's panic on the driver goroutine
				panic(panicMsg)
			}
		}
		e.deliver(w)
	}
	var end Time
	for _, k := range e.shards {
		if k.now > end {
			end = k.now
		}
	}
	return end
}

// startWorkers lazily spins up one window worker per shard.
func (e *Engine) startWorkers() {
	if e.work != nil {
		return
	}
	e.work = make([]chan Time, len(e.shards))
	e.done = make(chan wdone, len(e.shards))
	for i := range e.shards {
		e.work[i] = make(chan Time)
		go e.worker(i)
	}
}

// worker runs one shard's windows as the coordinator dispatches them.
func (e *Engine) worker(i int) {
	k := e.shards[i]
	for limit := range e.work[i] {
		e.done <- wdone{shard: i, msg: k.windowSafe(limit)}
	}
}

// windowSafe runs one window, converting a propagated task panic into
// a message for the barrier (panicking on a worker goroutine would
// kill the process without unwinding the coordinator).
func (k *Kernel) windowSafe(limit Time) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	k.runWindow(limit)
	return ""
}

// deliver drains every outbox at a window barrier, merging each
// destination's inbound posts in (at, src, seq) order and scheduling
// them. Runs single-threaded between windows.
func (e *Engine) deliver(w Time) {
	for dst, k := range e.shards {
		buf := e.merge[:0]
		for _, src := range e.shards {
			ob := src.outbox[dst]
			buf = append(buf, ob...)
			for i := range ob {
				ob[i].fn = nil
			}
			src.outbox[dst] = ob[:0]
		}
		if len(buf) > 1 {
			sort.Slice(buf, func(i, j int) bool {
				a, b := &buf[i], &buf[j]
				if a.at != b.at {
					return a.at < b.at
				}
				if a.src != b.src {
					return a.src < b.src
				}
				return a.seq < b.seq
			})
		}
		for i := range buf {
			p := &buf[i]
			assert.True(p.at >= w, "sim: cross-shard post below the conservative window")
			k.scheduleAt(p.at, p.fn)
			p.fn = nil
		}
		e.merge = buf[:0]
	}
}

// scheduleAt queues a kernel-context closure at an absolute future
// timestamp (cross-shard delivery).
func (k *Kernel) scheduleAt(at Time, fn func()) {
	assert.True(at > k.now, "sim: cross-shard delivery in this shard's past")
	e := k.alloc()
	k.seq++
	e.at, e.seq, e.cb = at, k.seq, funcCall(fn)
	k.heap.push(e)
}

// Stop makes Run return at the next window barrier. Coordinator
// context only; a task stops the engine by stopping its own shard's
// kernel instead (k.Stop from task context), which Run observes at
// the barrier.
func (e *Engine) Stop() {
	for _, k := range e.shards {
		k.Stop()
	}
}

// Shutdown unwinds all remaining tasks on every shard (in shard
// order) and releases the window workers. The engine must not be used
// afterwards.
func (e *Engine) Shutdown() {
	if e.work != nil {
		for _, ch := range e.work {
			close(ch)
		}
		e.work = nil
	}
	for _, k := range e.shards {
		k.Shutdown()
	}
}
