package sim

import (
	"fmt"
	"sync"
)

// Task pooling: Spawn used to allocate a Task struct, a handoff
// channel, and a fresh goroutine (plus its trampoline closure) per
// task — ~4 allocations and a goroutine-start for every spawn, the
// dominant cost of task-churn workloads (kernel/spawn, million-task
// scale runs). Instead, finished tasks park their goroutine on a
// process-wide free stack and Spawn re-arms one: the trampoline
// goroutine blocks on its existing hand channel between lives, so a
// warm Spawn is a couple of field stores and a map insert.
//
// The pool is deliberately a mutex-guarded stack rather than a
// sync.Pool: each pooled Task owns a live parked goroutine, and
// sync.Pool dropping items under GC pressure would leak those
// goroutines forever. Overflowing the bounded stack instead lets the
// trampoline return, ending its goroutine.
//
// Safety across kernels: the stack is shared by every kernel in the
// process, and independent kernels may be driven from different
// goroutines, so pushes and pops are mutex-serialized; a task is only
// repooled after its kernel has unlinked it from the task table and
// cancelled any pending wake, so a pooled Task is referenced by
// nothing but the stack and its own goroutine. Which physical Task
// struct a Spawn receives is scheduling-dependent when kernels run
// concurrently — that is fine because task identity is never
// observable: ids are per-kernel spawn-ordered, and all scheduling
// state (wake, done, killed) is reset on re-arm.

// maxPooledTasks bounds the free stack (and thus the number of idle
// parked goroutines kept alive).
const maxPooledTasks = 1 << 15

var taskPool struct {
	mu   sync.Mutex
	free []*Task
}

// getTask pops a pooled task (its trampoline goroutine already parked
// on hand) or builds a fresh one.
func getTask() *Task {
	taskPool.mu.Lock()
	if n := len(taskPool.free); n > 0 {
		t := taskPool.free[n-1]
		taskPool.free[n-1] = nil
		taskPool.free = taskPool.free[:n-1]
		taskPool.mu.Unlock()
		return t
	}
	taskPool.mu.Unlock()
	t := &Task{hand: make(chan struct{})} // cold refill; steady state recycles via putTask
	go taskMain(t)
	return t
}

// putTask pushes a finished, fully unlinked task back on the stack.
// It reports false when the stack is full, telling the trampoline to
// end its goroutine instead.
func putTask(t *Task) bool {
	taskPool.mu.Lock()
	if len(taskPool.free) >= maxPooledTasks {
		taskPool.mu.Unlock()
		return false
	}
	taskPool.free = append(taskPool.free, t) // free-stack growth is amortized
	taskPool.mu.Unlock()
	return true
}

// taskMain is the pooled trampoline: each iteration is one task
// lifetime. The goroutine parks on the hand channel between lives;
// Spawn's wake event eventually resumes it with fresh k/id/name/fn
// fields (the channel handoff is the happens-before edge making those
// writes visible).
func taskMain(t *Task) {
	for {
		<-t.hand
		// Note: the body runs even when killed before first resume
		// (Shutdown on a spawned-but-never-run task starts it; the
		// body unwinds at its first park), matching the pre-pool
		// trampoline exactly.
		t.exec()
		k := t.k
		t.k, t.fn, t.name = nil, nil, ""
		k.yield <- struct{}{}
		if !putTask(t) {
			return
		}
	}
}

// goexit is what Run panics with when a task body left through
// runtime.Goexit, as a test's t.Fatal inside a task does: that test has
// logged why, so a harness that runs it fails the test alone
// (RunCatching).
type goexit string

// exec runs one task body with the kernel's panic discipline. A body
// that leaves through runtime.Goexit (a test's t.Fatal inside a task)
// never returns to taskMain, so nothing would hand the kernel back: the
// task fails the run, yields here, and its goroutine ends.
func (t *Task) exec() {
	returned := false
	defer func() {
		r := recover()
		if r != nil {
			if _, ok := r.(killSignal); !ok {
				// Re-panicking here would crash an unrelated goroutine;
				// surface the panic through the kernel so Run's caller
				// sees it.
				t.k.fail(fmt.Sprintf("task %q panicked: %v", t.name, r))
			}
		}
		t.finish()
		if !returned && r == nil {
			k := t.k
			k.fail(goexit(fmt.Sprintf("task %q exited through runtime.Goexit", t.name)))
			t.k, t.fn, t.name = nil, nil, ""
			k.yield <- struct{}{}
		}
	}()
	t.fn(t)
	returned = true
}

// finish unlinks a task from its kernel at the end of a lifetime:
// marks it done, drops any still-queued wake (so no queue retains a
// pointer into the pool), and removes it from the task table.
func (t *Task) finish() {
	if len(t.k.stepEnd) > 0 {
		t.k.endStep()
	}
	t.done = true
	if t.wake != nil {
		t.k.cancel(t.wake)
		t.wake = nil
	}
	delete(t.k.tasks, t.id)
}
