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

// TestCopyAdmissionInArrivalOrder: DefaultBouncePairs + 2 equal copies
// arrive together. DefaultBouncePairs of them transfer at once, the
// other two wait in line, and — the link being shared fairly among
// equals — they complete in the order they arrived, every byte in place.
func TestCopyAdmissionInArrivalOrder(t *testing.T) {
	const (
		pairs  = core.DefaultBouncePairs
		copies = pairs + 2
		size   = 256 << 10
	)
	run(t, core.ClusterConfig{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
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
// with every bounce pair transferring and two more copies waiting for
// one. Their Process failed with the Controller, so nobody is sent a
// completion — but every copy must still unwind: the pairs handed down
// the line and back to the pool, the queue empty, every record recycled
// once the writes that were on the wire have completed.
func TestCopyUnwoundByControllerCrash(t *testing.T) {
	const copies = core.DefaultBouncePairs + 2
	run(t, core.ClusterConfig{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
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
		tk.Sleep(us(1000)) // the chunks on the wire, up to two per pair, complete
		engineIdle(t, ctrl, core.DefaultBouncePairs, "after the crash")
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

// TestRangedCopy: memory_copy moves exactly the range it is asked for —
// both ends of both objects, unaligned offsets over 1, 4 and 64 bounce
// chunks — with every byte outside the range left alone, as a push, a pull
// and on one node, on each datapath; and a range it must not move it
// refuses before the first RDMA op.
func TestRangedCopy(t *testing.T) {
	const (
		chunk = 16 << 10
		size  = 64*chunk + 4096 // room for 64 unaligned chunks
		max   = ^uint64(0)
	)
	datapaths := map[string]func(*core.Config){
		"bounce":       func(*core.Config) {},
		"SingleBuffer": func(c *core.Config) { c.SingleBuffer = true },
		"HWCopies":     func(c *core.Config) { c.HWCopies = true },
	}
	ranges := []struct{ srcOff, dstOff, n uint64 }{
		{0, 0, chunk},                      // the head of both
		{size - 100, size - 100, 100},      // the tail of both
		{0, size - 4096, 4096},             // head to tail
		{3, 5, 1000},                       // unaligned, 1 chunk
		{4093, 11, 4*chunk - 7},            // 4 chunks
		{13, 4001, 64*chunk - 13},          // 64 chunks
		{1, 0, size - 1}, {0, 1, size - 1}, // everything but one byte
	}
	refused := []struct {
		what            string
		srcOff, dstOff  uint64
		n               uint64
		noRead, noWrite bool
		want            wire.Status
	}{
		{what: "srcOff+n wraps", srcOff: max - 10, n: 4096, want: wire.StatusBounds},
		{what: "dstOff+n wraps", dstOff: max - 10, n: 4096, want: wire.StatusBounds},
		{what: "n alone exceeds everything", n: max, want: wire.StatusBounds},
		{what: "past the source's end", srcOff: size - 10, n: 11, want: wire.StatusBounds},
		{what: "past the destination's end", dstOff: size - 10, n: 11, want: wire.StatusBounds},
		{what: "whole source at a destination offset", dstOff: 1, want: wire.StatusBounds},
		{what: "source without Read", n: 64, noRead: true, want: wire.StatusPerm},
		{what: "destination without Write", n: 64, noWrite: true, want: wire.StatusPerm},
	}
	for name, set := range datapaths {
		cfg := core.ClusterConfig{Nodes: 2}
		set(&cfg.Ctrl)
		t.Run(name, func(t *testing.T) {
			run(t, cfg, func(tk *sim.Task, cl *core.Cluster) {
				// The copier on node 0 holds a local and a remote object.
				copier, peer := proc.Attach(cl, 0, "copier", 2*size), proc.Attach(cl, 1, "peer", size)
				near, nearBuf, err1 := copier.AllocMemory(tk, size, cap.MemRights)
				near2, near2Buf, err2 := copier.AllocMemory(tk, size, cap.MemRights)
				pfar, farBuf, err3 := peer.AllocMemory(tk, size, cap.MemRights)
				far, err4 := proc.GrantCap(peer, pfar, copier)
				if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
					t.Error(err1, err2, err3, err4)
					return
				}
				directions := []struct {
					what     string
					src, dst proc.Cap
					from, to []byte
				}{
					{"push", near, far, nearBuf, farBuf},
					{"pull", far, near, farBuf, nearBuf},
					{"same node", near, near2, nearBuf, near2Buf},
				}
				fill := func(d int) {
					for i := range directions[d].from {
						directions[d].from[i] = byte(i%251 + 1)
						directions[d].to[i] = 0
					}
				}
				for d, dir := range directions {
					for _, r := range ranges {
						fill(d)
						if err := copier.MemoryCopyRange(tk, dir.src, r.srcOff, dir.dst, r.dstOff, r.n); err != nil {
							t.Errorf("%s %+v: %v", dir.what, r, err)
							continue
						}
						for i, b := range dir.to {
							want := byte(0)
							if u := uint64(i); u >= r.dstOff && u < r.dstOff+r.n {
								want = dir.from[u-r.dstOff+r.srcOff]
							}
							if b != want {
								t.Errorf("%s %+v: destination byte %d is %d, want %d", dir.what, r, i, b, want)
								break
							}
						}
					}
					for _, r := range refused {
						fill(d)
						src, dst := dir.src, dir.dst
						var err error
						if r.noRead {
							src, err = copier.MemoryDiminish(tk, src, 0, size, cap.Read)
						}
						if r.noWrite && err == nil {
							dst, err = copier.MemoryDiminish(tk, dst, 0, size, cap.Write)
						}
						if err != nil {
							t.Errorf("%s, %s: diminish: %v", dir.what, r.what, err)
							continue
						}
						before := cl.Net.Stats().RDMAOps
						err = copier.MemoryCopyRange(tk, src, r.srcOff, dst, r.dstOff, r.n)
						if !wire.IsStatus(err, r.want) {
							t.Errorf("%s, %s: %v, want %v", dir.what, r.what, err, r.want)
						}
						if ops := cl.Net.Stats().RDMAOps - before; ops != 0 {
							t.Errorf("%s, %s: refused after %d RDMA ops", dir.what, r.what, ops)
						}
						for i, b := range dir.to {
							if b != 0 {
								t.Errorf("%s, %s: a refused copy wrote destination byte %d", dir.what, r.what, i)
								break
							}
						}
					}
				}
				// Revocation binds a ranged copy as it does a whole one: the
				// owner validates every copy when it starts, so once either
				// side is revoked the next copy moves nothing.
				for _, revoke := range []proc.Cap{pfar, near2} {
					owner := copier
					if revoke == pfar {
						owner = peer
					}
					if err := owner.Revoke(tk, revoke); err != nil {
						t.Error(err)
					}
				}
				before := cl.Net.Stats().RDMAOps
				if err := copier.MemoryCopyRange(tk, far, 0, near, 0, 64); err == nil {
					t.Error("ranged copy from a revoked source succeeded")
				}
				if err := copier.MemoryCopyRange(tk, near, 0, near2, 0, 64); err == nil {
					t.Error("ranged copy into a revoked destination succeeded")
				}
				if ops := cl.Net.Stats().RDMAOps - before; ops != 0 {
					t.Errorf("copies on revoked objects issued %d RDMA ops", ops)
				}
				engineIdle(t, cl.CtrlFor(0), core.DefaultBouncePairs, "at the end")
			})
		})
	}
}
