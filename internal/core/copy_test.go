package core_test

// The memory_copy engine under contention and faults: admission order
// through the bounce pool, and conservation of its resources — bounce
// chunks, the waiting queue, the pooled copy records — when a copy ends
// early with RDMA writes still on the wire.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/fabric"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
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
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
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
// completes with StatusAborted at once, gives its bounce pair back and
// recycles its record — while the write it issued before the cut is
// still on the wire: no event waits for a write's completion, whose
// instant the pair carries (TestAbortedCopyPairWaitsForItsWrite).
func TestCopyAbortedByPathCut(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		cl.Net.InstallFaults(fabric.Faults{})
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
		engineIdle(t, ctrl, core.DefaultBouncePairs, "at the abort")
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

// TestAbortedCopyPairWaitsForItsWrite: a 1 MiB push aborts on
// TestCopyAbortedByPathCut's cut with its last write-out still on the
// wire, and a node-local copy of two chunks starts right after the
// abort. The pool is a stack, so it stages through the pair the push
// gave back, one chunk through each buffer. The bytes that write is
// sending must stay in their bounce buffer until it completes: a real
// NIC would otherwise send the local copy's bytes in their place. The
// two cuts leave that write in either buffer of the pair.
func TestAbortedCopyPairWaitsForItsWrite(t *testing.T) {
	for _, cut := range []float64{300, 310} {
		t.Run(fmt.Sprintf("cut-%vus", cut), func(t *testing.T) { abortedCopyPairWaits(t, us(cut)) })
	}
}

func abortedCopyPairWaits(t *testing.T, cut sim.Time) {
	const chunk = core.DefaultBounceChunk
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		cl.Net.InstallFaults(fabric.Faults{})
		local, ends := newCopyPairs(t, tk, cl, 1, 1<<20)
		if ends == nil {
			return
		}
		near := proc.Attach(cl, 0, "near", 4*chunk)
		a, from, err1 := near.AllocMemory(tk, 2*chunk, cap.MemRights)
		b, to, err2 := near.AllocMemory(tk, 2*chunk, cap.MemRights)
		if err1 != nil || err2 != nil {
			t.Error(err1, err2)
			return
		}
		for i := range from {
			from[i] = byte(i%253 + 1)
		}
		ctrl := cl.CtrlFor(0)
		var writes []fabric.TraceEvent // the push's write-outs: node 0's only traffic out
		cl.Net.SetTrace(func(e fabric.TraceEvent) {
			if e.RDMA && e.From == ctrl.EndpointID() && e.To != near.Endpoint() {
				writes = append(writes, e)
			}
		})
		cl.K.After(cut, func() { cl.Net.SetLink(1, false) })
		if err := local.MemoryCopy(tk, ends[0].src, ends[0].dst); !wire.IsStatus(err, wire.StatusAborted) || len(writes) == 0 {
			t.Errorf("copy across a cut path: %v after %d write-outs, want StatusAborted after some", err, len(writes))
			return
		}
		cl.Net.SetTrace(nil)
		// Node 0's uplink serialises the write-outs in the order they were
		// issued; the last completes once its bytes are through, the wire
		// crossed and both NICs turned, and the Controller has taken the
		// completion.
		prof := cl.Net.Profile()
		var busy sim.Time
		for _, w := range writes {
			busy = max(busy, w.At) + sim.Time(float64(w.Bytes)/prof.WireBW*1e9)
		}
		entry := prof.HostEntry
		if ctrl.Loc().Domain == fabric.SNIC {
			entry = prof.SNICEntry
		}
		drained := busy + prof.CrossNode + 2*prof.RDMARemote + entry
		// That write carries the source's chunk len(writes)-1, staged in one
		// of the pair's buffers; check it is still there just before then.
		ep, _ := cl.Net.Lookup(ctrl.EndpointID())
		last := len(writes) - 1
		sending := ends[0].from[last*chunk : (last+1)*chunk]
		buf := -1
		for off := 0; off < 2*core.DefaultBouncePairs*chunk; off += chunk {
			if bytes.Equal(ep.Arena()[off:off+chunk], sending) {
				buf = off
			}
		}
		if buf < 0 || drained <= tk.Now() {
			t.Errorf("at the abort: the last write-out's bytes staged at %d, completing at %v; want a bounce buffer, after %v", buf, drained, tk.Now())
			return
		}
		cl.K.After(drained-1-tk.Now(), func() {
			if !bytes.Equal(ep.Arena()[buf:buf+chunk], sending) {
				t.Errorf("a bounce buffer was overwritten before %v, when the write-out staged in it completes", drained)
			}
		})
		if err := near.MemoryCopy(tk, a, b); err != nil || !bytes.Equal(from, to) {
			t.Errorf("local copy after the abort: err %v, arrived %v", err, bytes.Equal(from, to))
		}
		engineIdle(t, ctrl, core.DefaultBouncePairs, "after the local copy")
	})
}

// TestAbortedPullKeepsPairUntilReadLands: node 1's link is cut in the
// middle of a 1 MiB pull from it. The next read cannot start, so the
// caller gets StatusAborted at once — while the read posted before it,
// a chunk ahead, is still in flight, its NIC writing into one of the
// copy's bounce buffers. Until that read lands the copy keeps its
// record and its bounce pair, so the pool cannot lend the pair to
// another copy; then both go back, the engine is idle, and the same
// pull goes through once the link is back.
func TestAbortedPullKeepsPairUntilReadLands(t *testing.T) {
	const size, pairs = 1 << 20, core.DefaultBouncePairs
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		cl.Net.InstallFaults(fabric.Faults{})
		local, remote := proc.Attach(cl, 0, "local", size), proc.Attach(cl, 1, "remote", size)
		dst, to, err1 := local.AllocMemory(tk, size, cap.MemRights)
		rsrc, from, err2 := remote.AllocMemory(tk, size, cap.MemRights)
		src, err3 := proc.GrantCap(remote, rsrc, local)
		if err := errors.Join(err1, err2, err3); err != nil {
			t.Error(err)
			return
		}
		for i := range from {
			from[i] = byte(i%251 + 1)
		}
		ctrl := cl.CtrlFor(0)
		var last sim.Time // when the pull posted its last read
		cl.Net.SetTrace(func(e fabric.TraceEvent) {
			if e.RDMA && e.From == remote.Endpoint() {
				last = e.At
			}
		})
		cl.K.After(us(300), func() { cl.Net.SetLink(1, false) })
		if err := local.MemoryCopy(tk, src, dst); !wire.IsStatus(err, wire.StatusAborted) || last == 0 {
			t.Errorf("pull across a cut path: %v, want StatusAborted after some reads", err)
			return
		}
		cl.Net.SetTrace(nil)
		// The read's bytes went out just as the chunk before cleared node
		// 1's uplink; it lands once they are through, the wire crossed and
		// both NICs turned, and the Controller has taken the completion.
		prof := cl.Net.Profile()
		lands := last + prof.HostExit + prof.CrossNode + prof.RDMARemote +
			sim.Time(float64(core.DefaultBounceChunk)/prof.WireBW*1e9) + prof.CrossNode + 2*prof.RDMARemote + prof.HostEntry
		if now := tk.Now(); now < us(300) || now >= lands {
			t.Errorf("aborted at %v, want after the cut at 300 µs and before the read in flight lands at %v", now, lands)
			return
		}
		held := func(when string) {
			if free, waiting, live := ctrl.CopyEngine(); free != 2*pairs-2 || waiting != 0 || live != 1 {
				t.Errorf("%s: %d of %d bounce chunks free, %d copies waiting, %d copy records live; want the pair and the record held",
					when, free, 2*pairs, waiting, live)
			}
		}
		held("at the abort")
		cl.K.After(lands-1-tk.Now(), func() { held("1 ns before the read lands") })
		tk.Sleep(lands - tk.Now())
		engineIdle(t, ctrl, pairs, "once the read has landed")
		cl.Net.SetLink(1, true)
		if err := local.MemoryCopy(tk, src, dst); err != nil || !bytes.Equal(from, to) {
			t.Errorf("pull after the heal: err %v, arrived %v", err, bytes.Equal(from, to))
		}
		engineIdle(t, ctrl, pairs, "after the retried pull")
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
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
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
		cfg := testbed.Spec{Nodes: 2}
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

// Contended-copy digests: SHA-256 of contendedCopyTrace's fabric records
// and completion instants, one per datapath, and of its shape
// (copyShape): a change that only resizes messages, and so moves the
// instants after them, leaves the shapes alone.
//
// Last moved, the double-buffered trace and shape, when a copy began to
// post each read just in time behind the one before, two in flight
// (49b570fc… and 2119eb25… until then; SingleBuffer's did not move):
// still 1 944 lines, every copy ending with its bytes. The first
// diverging record is the 42nd, a push's 16 KiB bounce read 4>1, posted
// at 112 375 instead of after the read before it landed; the last copy
// ends at 6 502 756 instead of 6 509 393.
//
// Before that, they moved, shapes too, when messages began to overtake
// one-sided RDMA on a link (915d29c0… and 405d7ea6…, shapes aedbc74d…
// and d7eab397… until then): each trace still holds 1 944 lines and every copy ends
// with the bytes it moved; instants and the order of concurrent
// transfers moved. First diverging pair, double-buffered, lines 57 and
// 58: copy 3.0's Completion, 7 bytes sent at 126 619 on node 0's PCIe
// path, waited until 128 239 behind five bounce reads and a 4 KiB write
// booked there, and the copy ended at 129 450, after the 16 KiB write
// 1>3 at 129 349; now the Completion leaves at once and the copy ends
// first, at 127 830. SingleBuffer, lines 54 and 55: the next syscall
// (5>1 at 122 370) no longer waits behind the read 6>1, so the copy's
// CtrlValidate 1>2 leaves at 124 481, before the 16 KiB write 1>3 at
// 126 199, where it left at 127 200, after it.
const (
	contendedCopySHA256       = "fac86d02d9215351964b79fc72e5b06961b1d0a838dea119e3255f01b77adaa3"
	contendedCopySingleSHA256 = "fefee0861563b67fc17d31f8b8a662d4c826bf5c45bee4736f1df4e40f0cfd82"

	contendedCopyShapeSHA256       = "c3d8a736c616ec20d1420293b53f3abcc94a84e00a9ecf8858e7da89880dd06d"
	contendedCopySingleShapeSHA256 = "f8b8ce73ed2309a6544a21d82c57c2e9601277e9baed3795629328c480f81c80"
)

// copyShape strips a contendedCopyTrace log of every instant and
// message size: a fabric record drops its instant and its byte count, a
// copy line its completion instant (its copy size stays).
func copyShape(trace string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(trace, "\n"), "\n") {
		f := strings.Fields(line)
		if f[0] == "copy" {
			f = slices.Delete(f, 4, 6) // "done <instant>"
		} else {
			f = slices.Delete(slices.Delete(f, 4, 5), 0, 1) // "<bytes>B", then the instant
		}
		b.WriteString(strings.Join(f, " ") + "\n")
	}
	return b.String()
}

// TestContendedCopyDigestPinned holds the copy engine under contention to
// pinned digests. The other copy gates run one copy at a time, so no chunk
// ever waits for a bounce buffer still writing out the chunk before last,
// and no copy waits for a bounce pair: here both happen, double-buffered
// and with cfg.SingleBuffer, and every RDMA op, message and completion
// must stay where it was.
func TestContendedCopyDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		name        string
		single      bool
		want, shape string
	}{
		{"double-buffered", false, contendedCopySHA256, contendedCopyShapeSHA256},
		{"SingleBuffer", true, contendedCopySingleSHA256, contendedCopySingleShapeSHA256},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trace := contendedCopyTrace(t, tc.single)
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(trace))); got != tc.want {
				t.Errorf("contended-copy trace digest = %s, pinned %s", got, tc.want)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(copyShape(trace)))); got != tc.shape {
				t.Errorf("contended-copy shape digest = %s, pinned %s", got, tc.shape)
			}
		})
	}
}

// contendedCopyTrace runs 4 copier Processes on node 0 against a passive
// Process on node 1, each with 3 copies in flight at a time — 12 at once,
// more than DefaultBouncePairs, so admission queues — drawing sizes from
// the copy-bulk mix (4 KiB, 64 KiB, 1 MiB at 50/35/15 %) and pushing or
// pulling at random. It returns every fabric record and every copy's
// completion instant, one line each, in the order they happened.
func contendedCopyTrace(t *testing.T, single bool) string {
	const (
		copiers, streams, perStream = 4, 3, 4
		region                      = 1 << 20
	)
	var b strings.Builder
	cfg := testbed.Spec{Nodes: 2}
	cfg.Ctrl.SingleBuffer = single
	run(t, cfg, func(tk *sim.Task, cl *core.Cluster) {
		remote := proc.Attach(cl, 1, "remote", copiers*(1+streams)*region)
		type stream struct {
			lsrc, rsrc, ldst, rdst proc.Cap
			lfrom, rfrom, lto, rto []byte
		}
		var ss []stream
		var ps []*proc.Process
		for c := 0; c < copiers; c++ {
			p := proc.Attach(cl, 0, fmt.Sprintf("copier-%d", c), (1+streams)*region)
			lsrc, lfrom, err := p.AllocMemory(tk, region, cap.MemRights)
			if err != nil {
				t.Error(err)
				return
			}
			rs, rfrom, err := remote.AllocMemory(tk, region, cap.MemRights)
			if err != nil {
				t.Error(err)
				return
			}
			rsrc, err := proc.GrantCap(remote, rs, p)
			if err != nil {
				t.Error(err)
				return
			}
			for j := range lfrom {
				lfrom[j], rfrom[j] = byte(c*7+j%251), byte(c*11+j%241)
			}
			for s := 0; s < streams; s++ {
				st := stream{lsrc: lsrc, rsrc: rsrc, lfrom: lfrom, rfrom: rfrom}
				if st.ldst, st.lto, err = p.AllocMemory(tk, region, cap.MemRights); err != nil {
					t.Error(err)
					return
				}
				rd, rto, err := remote.AllocMemory(tk, region, cap.MemRights)
				if err != nil {
					t.Error(err)
					return
				}
				if st.rdst, err = proc.GrantCap(remote, rd, p); err != nil {
					t.Error(err)
					return
				}
				st.rto = rto
				ss = append(ss, st)
				ps = append(ps, p)
			}
		}
		cl.Net.SetTrace(func(e fabric.TraceEvent) {
			fmt.Fprintf(&b, "%d %d>%d t%d rdma=%v %dB c%d lost=%v\n", e.At, e.From, e.To, e.Type, e.RDMA, e.Bytes, e.Class, e.Lost)
		})
		rng := rand.New(rand.NewSource(7))
		sizes := [3]int{4 << 10, 64 << 10, 1 << 20}
		var wg sim.WaitGroup
		wg.Add(len(ss))
		for i := range ss {
			i, st, p := i, ss[i], ps[i]
			type copyPlan struct {
				size int
				push bool
			}
			plan := make([]copyPlan, perStream)
			for k := range plan {
				size := sizes[0]
				switch u := rng.Float64(); {
				case u >= 0.85:
					size = sizes[2]
				case u >= 0.50:
					size = sizes[1]
				}
				plan[k] = copyPlan{size, rng.Intn(2) == 0}
			}
			cl.K.Spawn("copier", func(ct *sim.Task) {
				defer wg.Done()
				for k, c := range plan {
					src, dst, from, to := st.lsrc, st.rdst, st.lfrom, st.rto
					if !c.push {
						src, dst, from, to = st.rsrc, st.ldst, st.rfrom, st.lto
					}
					clear(to[:c.size])
					err := p.MemoryCopyRange(ct, src, 0, dst, 0, uint64(c.size))
					fmt.Fprintf(&b, "copy %d.%d %dB push=%v done %d err=%v\n", i, k, c.size, c.push, ct.Now(), err)
					if err != nil || !bytes.Equal(to[:c.size], from[:c.size]) {
						t.Errorf("stream %d copy %d (%d B, push %v): err %v or destination differs", i, k, c.size, c.push, err)
						return
					}
				}
			})
		}
		wg.Wait(tk)
		cl.Net.SetTrace(nil)
		engineIdle(t, cl.CtrlFor(0), core.DefaultBouncePairs, "after the contended copies")
	})
	return b.String()
}

// TestVirtGateContendedCopy pins a 4 KiB push issued 105 µs after
// another Process on the same node started a 1 MiB push to the same
// peer: the two share node 0's uplink and its PCIe path. Messages
// overtake one-sided RDMA on a link, so the small copy's syscall,
// validation and completion take exactly as long as on an idle fabric;
// only its own read and write queue behind the chunks already booked.
// Every instant follows from fabric.DefaultProfile and core.DefaultPerf
// (ns from the bulk copy's syscall; PCIe 6 GB/s, uplink 1.25 GB/s):
//
//   - frames: MemCopy 7 B, 1 on PCIe; CtrlValidate 8 B, 6 on the
//     uplink; CtrlValInfo 10 or 11 B, 8; the Completion 7 or 8 B, 1.
//   - the small copy alone, 16 844: syscall 600+1+610, MemOp 900,
//     validation 600+6+850+610, 580, 600+8+850+610, 580, PerChunk 350,
//     so its read issues 7 755 after the syscall; the read 850 (the
//     request leg) + 682 (4 KiB on PCIe) + 250+250+610; the write 3 276
//     on the uplink + 850+250+250+610; the Completion 600+1+610.
//   - the bulk copy reads chunk i ≥ 2 at 27 862 + 13 107(i−2), once the
//     write of chunk i−2 has drained its bounce buffer; it books the
//     chunk's write 4 690 later, behind chunk i−1's, and the uplink
//     sends it over [12 445 + 13 107i, 25 552 + 13 107i].
//   - the small copy's syscall leaves at 105 000 and its CtrlValidate
//     at 107 111, ahead of chunk 7's write (booked at 98 087, on the
//     wire until 117 301): it pushes the RDMA horizon back 6 ns, to
//     117 307. Its read issues at 112 755, as alone, and the PCIe path
//     is idle (chunk 8's read ended at 110 084), so the read is done at
//     115 397. By then chunk 8's write (booked at 111 194) holds the
//     uplink over [117 307, 130 414]; the small write follows over
//     [130 414, 133 690] and drains at 135 650, and the Completion
//     arrives at 136 861: 31 861, of which 15 017 is its write's wait.
//   - the bulk copy ends 3 282 later than alone, 857 746: every chunk
//     after chunk 7 is pushed back by the small write's 3 276 and the
//     CtrlValidate's 6. Bandwidth is conserved.
func TestVirtGateContendedCopy(t *testing.T) {
	const (
		after                 = 105 * sim.Time(1000) // ns from the bulk copy's start
		alone, contended      = sim.Time(16844), sim.Time(31861)
		bulkAlone, bulkLoaded = sim.Time(854464), sim.Time(857746)
		toRead, readToWrite   = sim.Time(7755), sim.Time(2642)
	)
	for _, tc := range []struct {
		name       string
		at         sim.Time // the small copy's start
		took, bulk sim.Time
	}{
		{"alone", 2 * bulkAlone, alone, bulkAlone},
		{"contended", after, contended, bulkLoaded},
	} {
		took, bulk, ops := contendedCopies(t, false, tc.at)
		if took != tc.took || bulk != tc.bulk {
			t.Errorf("%s: the 4 KiB push took %v and the 1 MiB push %v, want %v and %v", tc.name, took, bulk, tc.took, tc.bulk)
		}
		if len(ops) != 2 {
			t.Errorf("%s: the 4 KiB push issued %d RDMA ops, want its read and its write", tc.name, len(ops))
		} else if read, write := ops[0]-tc.at, ops[1]-ops[0]; read != toRead || write != readToWrite {
			t.Errorf("%s: the 4 KiB push read at %v after its start and wrote %v later, want %v and %v",
				tc.name, read, write, toRead, readToWrite)
		}
	}
}

// TestVirtGateContendedPull pins a 4 KiB pull issued 102 µs after
// another Process on the same node started a 1 MiB pull from the same
// peer: both read over node 1's uplink. The bulk pull posts each read
// just in time, so when the small read is booked the uplink holds the
// rest of one bulk chunk and no more. A copy that posted a read for
// every free bounce buffer would have booked the next chunk too (it
// posts chunk k ≥ 2's read at 2 498 + 13 107k), and the small pull would
// take 13 107 ns longer: this gate fails it, where an unloaded copy's
// gates cannot tell the two apart. Every instant follows from
// fabric.DefaultProfile and core.DefaultPerf (ns from the bulk copy's
// syscall; frames as in TestVirtGateContendedCopy):
//
//   - the small pull alone, 17 694: its read issues 7 755 after the
//     syscall, as the push's does; the request leg 600+850+250; 3 276
//     on node 1's uplink; the tail 850+250+250+610; the write 682 on
//     PCIe + 250+250+610; the Completion 600+1+610. That is
//     TestVirtGateMemCopy's 4 KiB pull, whose CtrlValInfo is a byte
//     shorter and 1 ns quicker.
//   - the bulk pull posts chunk k's read at 7 755 + 13 107k, as chunk
//     k−1's bytes are 1 700 (the request leg) from clearing the uplink,
//     which carries chunk k over [9 455 + 13 107k, 22 562 + 13 107k].
//   - the small pull's CtrlValInfo leaves node 1 at 106 757, while
//     chunk 7's bytes hold the uplink until 114 311, and pushes the
//     RDMA horizon back 8 ns. The small read is posted at 109 755,
//     before chunk 8's (112 611), and its request arrives at 111 455; it
//     waits 2 864 for chunk 7 to clear — less than one chunk — and
//     holds the uplink over [114 319, 117 595]. It lands at 119 555 and
//     its write drains at 121 347 (chunk 7's write on PCIe ended at
//     119 001), and the Completion arrives at 122 558: 20 558.
//   - the bulk pull ends 3 284 later than alone, 858 598: every chunk
//     from chunk 8 on waits for the small read's 3 276 and the
//     CtrlValInfo's 8. Bandwidth is conserved.
func TestVirtGateContendedPull(t *testing.T) {
	const (
		after                 = 102 * sim.Time(1000) // ns from the bulk copy's start
		alone, contended      = sim.Time(17694), sim.Time(20558)
		bulkAlone, bulkLoaded = sim.Time(855314), sim.Time(858598)
		toRead, readToWrite   = sim.Time(7755), sim.Time(1700 + 3276 + 1960)
	)
	chunk := sim.Time(float64(core.DefaultBounceChunk) / fabric.DefaultProfile().WireBW * 1e9)
	if contended-alone >= chunk {
		t.Errorf("the small pull waits %v behind the bulk one, want less than one chunk's %v", contended-alone, chunk)
	}
	for _, tc := range []struct {
		name       string
		at         sim.Time
		took, bulk sim.Time
		wait       sim.Time // the small read's on the uplink
	}{
		{"alone", 2 * bulkAlone, alone, bulkAlone, 0},
		{"contended", after, contended, bulkLoaded, contended - alone},
	} {
		took, bulk, ops := contendedCopies(t, true, tc.at)
		if took != tc.took || bulk != tc.bulk {
			t.Errorf("%s: the 4 KiB pull took %v and the 1 MiB pull %v, want %v and %v", tc.name, took, bulk, tc.took, tc.bulk)
		}
		if len(ops) != 2 {
			t.Errorf("%s: the 4 KiB pull issued %d RDMA ops, want its read and its write", tc.name, len(ops))
		} else if read, write := ops[0]-tc.at, ops[1]-ops[0]; read != toRead || write != readToWrite+tc.wait {
			t.Errorf("%s: the 4 KiB pull read at %v after its start and wrote %v later, want %v and %v",
				tc.name, read, write, toRead, readToWrite+tc.wait)
		}
	}
}

// contendedCopies is the rig of the two gates above: a Process on node 0
// copies 1 MiB to a peer on node 1, and another Process on node 0 copies
// 4 KiB there at — both pushing, or both pulling from the peer. It
// returns how long the small copy and the bulk one took, and the
// instants of the small copy's RDMA ops, the only 4 KiB ones: its read,
// then its write.
func contendedCopies(t *testing.T, pull bool, at sim.Time) (took, bulkTook sim.Time, ops []sim.Time) {
	const small, bulk = 4 << 10, 1 << 20
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		bp, sp := proc.Attach(cl, 0, "bulk", bulk), proc.Attach(cl, 0, "small", small)
		remote := proc.Attach(cl, 1, "remote", bulk+small)
		bl, _, err1 := bp.AllocMemory(tk, bulk, cap.MemRights)
		sl, _, err2 := sp.AllocMemory(tk, small, cap.MemRights)
		br, _, err3 := remote.AllocMemory(tk, bulk, cap.MemRights)
		sr, _, err4 := remote.AllocMemory(tk, small, cap.MemRights)
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			t.Error(err)
			return
		}
		br, err1 = proc.GrantCap(remote, br, bp)
		sr, err2 = proc.GrantCap(remote, sr, sp)
		if err := errors.Join(err1, err2); err != nil {
			t.Error(err)
			return
		}
		bsrc, bdst, ssrc, sdst := bl, br, sl, sr
		if pull {
			bsrc, bdst, ssrc, sdst = br, bl, sr, sl
		}
		cl.Net.SetTrace(func(e fabric.TraceEvent) {
			if e.RDMA && e.Bytes == small {
				ops = append(ops, e.At)
			}
		})
		start := tk.Now()
		var wg sim.WaitGroup
		wg.Add(1)
		cl.K.Spawn("bulk", func(bt *sim.Task) {
			defer wg.Done()
			if err := bp.MemoryCopy(bt, bsrc, bdst); err != nil {
				t.Error(err)
			}
			bulkTook = bt.Now() - start
		})
		tk.Sleep(at)
		if err := sp.MemoryCopy(tk, ssrc, sdst); err != nil {
			t.Error(err)
		}
		took = tk.Now() - start - at
		wg.Wait(tk)
		cl.Net.SetTrace(nil)
		for i := range ops {
			ops[i] -= start
		}
	})
	return took, bulkTook, ops
}

// copyFault is one fault of TestCopyCrashPointSweep and how it heals.
type copyFault struct {
	name         string
	inject, heal func(cl *core.Cluster)
	failsCaller  bool // the caller's Process fails with its Controller
}

// TestCopyCrashPointSweep sweeps a fault across an unloaded 64 KiB
// copy, push and pull (the copy row of ROADMAP 3(a)). The copy runs once
// unfaulted to learn its instants: every fabric operation's, just before
// and just after. Then it runs again once per instant and fault, with
// the fault injected there: the initiating Controller crashes, the
// remote owner's Controller crashes, or the remote node's link goes
// down. 50 µs later it heals: the Controller reboots and announces its
// new epoch, or the link comes back. Whatever the instant, the caller
// gets an error status or OK with every byte delivered — or, its
// Process failed with its Controller, nothing or a severed channel —
// and once the cluster is quiet the copy engine holds nothing and no
// frame is live. Every run's Net is built with faults, so the
// Controllers retransmit: a validation lost on the cut path is resent
// until the link comes back.
func TestCopyCrashPointSweep(t *testing.T) {
	faults := []copyFault{
		{"initiator crash", func(cl *core.Cluster) { cl.CtrlFor(0).Crash() }, func(cl *core.Cluster) { cl.CtrlFor(0).Reboot() }, true},
		{"owner crash", func(cl *core.Cluster) { cl.CtrlFor(1).Crash() }, func(cl *core.Cluster) { cl.CtrlFor(1).Reboot() }, false},
		{"link cut", func(cl *core.Cluster) { cl.Net.SetLink(1, false) }, func(cl *core.Cluster) { cl.Net.SetLink(1, true) }, false},
	}
	for _, pull := range []bool{false, true} {
		instants := faultedCopy(t, pull, nil, 0)
		if len(instants) < 2*8 {
			t.Errorf("pull %v: %d instants to sweep, want one before and one after each of the 8 RDMA ops at least", pull, len(instants))
		}
		for _, f := range faults {
			for _, at := range instants {
				faultedCopy(t, pull, &f, at)
			}
		}
	}
}

// faultedCopy runs TestCopyCrashPointSweep's copy with f injected at
// at, or unfaulted with f nil, when it returns the instants to sweep.
func faultedCopy(t *testing.T, pull bool, f *copyFault, at sim.Time) (instants []sim.Time) {
	const size = 64 << 10
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		cl.Net.InstallFaults(fabric.Faults{})
		local, remote := proc.Attach(cl, 0, "local", size), proc.Attach(cl, 1, "remote", size)
		lmem, lbuf, err1 := local.AllocMemory(tk, size, cap.MemRights)
		rmem, rbuf, err2 := remote.AllocMemory(tk, size, cap.MemRights)
		if err1 != nil || err2 != nil {
			t.Error(err1, err2)
			return
		}
		rmem, err := proc.GrantCap(remote, rmem, local)
		if err != nil {
			t.Error(err)
			return
		}
		src, dst, from, to := lmem, rmem, lbuf, rbuf
		if pull {
			src, dst, from, to = rmem, lmem, rbuf, lbuf
		}
		for i := range from {
			from[i] = byte(i%251 + 1)
		}
		what := fmt.Sprintf("pull %v, unfaulted", pull)
		if f == nil {
			cl.Net.SetTrace(func(e fabric.TraceEvent) {
				if n := len(instants); n == 0 || instants[n-1] != e.At+1 {
					instants = append(instants, e.At, e.At+1)
				}
			})
		} else {
			what = fmt.Sprintf("pull %v, %s at %v", pull, f.name, at)
			cl.K.After(at-tk.Now(), func() {
				f.inject(cl)
				cl.K.After(us(50), func() { f.heal(cl) })
			})
		}
		var copyErr error
		returned := false
		cl.K.Spawn("copier", func(ct *sim.Task) {
			copyErr = local.MemoryCopy(ct, src, dst)
			returned = true
		})
		tk.Sleep(core.RPCBudget + us(1000))
		cl.Net.SetTrace(nil)
		failed := f != nil && f.failsCaller
		switch {
		case !returned && !failed:
			t.Errorf("%s: the copy never returned", what)
		case !returned, copyErr == nil && bytes.Equal(from, to): // its Process failed, or every byte arrived
		case copyErr == nil:
			t.Errorf("%s: OK, but the destination differs from the source", what)
		case f == nil || !errors.As(copyErr, new(*wire.StatusError)) && !(failed && errors.Is(copyErr, proc.ErrDisconnected)):
			t.Errorf("%s: %v, want OK or an error status", what, copyErr)
		}
		engineIdle(t, cl.CtrlFor(0), core.DefaultBouncePairs, what)
		if lent := cl.K.Unparked(); lent != "" {
			t.Errorf("%s: records lent at quiescence: %s", what, lent)
		}
	})
	return instants
}
