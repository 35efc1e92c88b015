package core_test

// The memory_copy engine under contention and faults: admission order
// through the bounce pool, and conservation of its resources — bounce
// chunks, the waiting queue, the pooled copy records — when a copy ends
// early with RDMA writes still on the wire.

import (
	"testing"

	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// copyPair is one push copy's ends: a source region on node 0 and a
// destination region on node 1, both filled with distinct patterns.
type copyPair struct {
	src, dst proc.Cap
	from, to []byte
}

// newCopyPairs sets up n of them. It runs in a simulation task, where a
// test must not call t.Fatal: on failure it reports and returns nil.
func newCopyPairs(t *testing.T, tk *sim.Task, cl *core.Cluster, n, size int) (*proc.Process, []copyPair) {
	local, remote := proc.Attach(cl, 0, "local", n*size), proc.Attach(cl, 1, "remote", n*size)
	pairs := make([]copyPair, n)
	for i := range pairs {
		p := &pairs[i]
		var rdst proc.Cap
		var err error
		if p.src, p.from, err = local.AllocMemory(tk, size, cap.MemRights); err == nil {
			if rdst, p.to, err = remote.AllocMemory(tk, size, cap.MemRights); err == nil {
				p.dst, err = proc.GrantCap(remote, rdst, local)
			}
		}
		if err != nil {
			t.Error(err)
			return nil, nil
		}
		for j := range p.from {
			p.from[j] = byte(i*31 + j%251)
		}
	}
	return local, pairs
}

func (p *copyPair) arrived() bool {
	for j := range p.from {
		if p.to[j] != p.from[j] {
			return false
		}
	}
	return true
}

// engineIdle checks that a Controller's copy engine holds nothing.
func engineIdle(t *testing.T, c *core.Controller, pairs int, when string) {
	t.Helper()
	if free, waiting, live := c.CopyEngine(); free != 2*pairs || waiting != 0 || live != 0 {
		t.Errorf("%s: %d of %d bounce chunks free, %d copies waiting, %d copy records live; want all free, 0, 0",
			when, free, 2*pairs, waiting, live)
	}
}

// TestCopyAdmissionInArrivalOrder: BouncePairs + 2 equal copies arrive
// together. BouncePairs of them transfer at once, the other two wait in
// line, and — the link being shared fairly among equals — they complete
// in the order they arrived, every byte in place.
func TestCopyAdmissionInArrivalOrder(t *testing.T) {
	const (
		pairs  = 2
		copies = pairs + 2
		size   = 256 << 10
	)
	cfg := core.ClusterConfig{Nodes: 2}
	cfg.Ctrl.BouncePairs = pairs
	run(t, cfg, func(tk *sim.Task, cl *core.Cluster) {
		local, ends := newCopyPairs(t, tk, cl, copies, size)
		if ends == nil {
			return
		}
		var order []int
		var wg sim.WaitGroup
		wg.Add(copies)
		for i := range ends {
			i := i
			cl.K.Spawn("copier", func(ct *sim.Task) {
				defer wg.Done()
				if err := local.MemoryCopy(ct, ends[i].src, ends[i].dst); err != nil {
					t.Errorf("copy %d: %v", i, err)
				}
				order = append(order, i)
			})
		}
		tk.Sleep(us(50)) // all validated; the first chunks are on the wire
		if free, waiting, live := cl.CtrlFor(0).CopyEngine(); free != 0 || waiting != 2 || live != copies {
			t.Errorf("mid-way: %d chunks free, %d waiting, %d live; want 0, 2, %d", free, waiting, live, copies)
		}
		wg.Wait(tk)
		for i := range ends {
			if i >= len(order) || order[i] != i {
				t.Errorf("copies completed in order %v, want arrival order", order)
				return
			}
			if !ends[i].arrived() {
				t.Errorf("copy %d: destination differs from source", i)
			}
		}
		engineIdle(t, cl.CtrlFor(0), pairs, "after the last copy")
	})
}

// TestCopyAbortedByPathCut: the path to the destination is cut in the
// middle of a 1 MiB push. The next write cannot start, so the copy
// completes with StatusAborted at once and gives its bounce pair back —
// while the write it issued before the cut is still on the wire. That
// completion must find its own record: only after it has fired is the
// record back in the pool.
func TestCopyAbortedByPathCut(t *testing.T) {
	run(t, core.ClusterConfig{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		local, ends := newCopyPairs(t, tk, cl, 1, 1<<20)
		if ends == nil {
			return
		}
		cl.K.After(us(300), func() { cl.Net.SetLink(1, false) })
		err := local.MemoryCopy(tk, ends[0].src, ends[0].dst)
		if !wire.IsStatus(err, wire.StatusAborted) {
			t.Errorf("copy across a cut path: %v, want StatusAborted", err)
			return
		}
		if now := tk.Now(); now < us(300) || now > us(330) {
			t.Errorf("aborted at %v, want within one chunk of the cut at 300 µs", now)
		}
		ctrl := cl.CtrlFor(0)
		if free, waiting, live := ctrl.CopyEngine(); free != 2*core.DefaultBouncePairs || waiting != 0 || live != 1 {
			t.Errorf("at the abort: %d chunks free, %d waiting, %d records live; want all free, 0, and 1 (a write is still on the wire)",
				free, waiting, live)
		}
		tk.Sleep(us(100))
		engineIdle(t, ctrl, core.DefaultBouncePairs, "after the last write completion")
		if ends[0].arrived() {
			t.Error("an aborted copy delivered every byte")
		}
		// The engine is whole: the same copy goes through once the path is back.
		cl.Net.SetLink(1, true)
		if err := local.MemoryCopy(tk, ends[0].src, ends[0].dst); err != nil || !ends[0].arrived() {
			t.Errorf("copy after the heal: err %v, arrived %v", err, ends[0].arrived())
		}
		engineIdle(t, ctrl, core.DefaultBouncePairs, "after the retried copy")
	})
}

// TestCopyUnwoundByControllerCrash: the initiating Controller crashes
// with one copy transferring and two waiting for its bounce pair. Their
// Process failed with the Controller, so nobody is sent a completion —
// but every copy must still unwind: the pair handed down the line and
// back to the pool, the queue empty, every record recycled once the
// writes that were on the wire have completed.
func TestCopyUnwoundByControllerCrash(t *testing.T) {
	const copies = 3
	cfg := core.ClusterConfig{Nodes: 2}
	cfg.Ctrl.BouncePairs = 1
	run(t, cfg, func(tk *sim.Task, cl *core.Cluster) {
		local, ends := newCopyPairs(t, tk, cl, copies, 256<<10)
		if ends == nil {
			return
		}
		returned := 0
		for i := range ends {
			i := i
			cl.K.Spawn("copier", func(ct *sim.Task) {
				_ = local.MemoryCopy(ct, ends[i].src, ends[i].dst)
				returned++
			})
		}
		tk.Sleep(us(100))
		ctrl := cl.CtrlFor(0)
		if free, waiting, live := ctrl.CopyEngine(); free != 0 || waiting != 2 || live != copies {
			t.Errorf("before the crash: %d chunks free, %d waiting, %d live; want 0, 2, %d", free, waiting, live, copies)
		}
		ctrl.Crash()
		tk.Sleep(us(100))
		engineIdle(t, ctrl, 1, "after the crash")
		if returned != 0 {
			t.Errorf("%d copies of a failed Process were completed", returned)
		}
		for i := range ends {
			if ends[i].arrived() {
				t.Errorf("copy %d ran to the end on a crashed Controller", i)
			}
		}
	})
}
