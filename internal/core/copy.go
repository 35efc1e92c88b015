package core

import (
	"fractos/internal/cap"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// memLoc is the physical location of a validated Memory object.
type memLoc struct {
	ep   uint32 // fabric endpoint holding the bytes
	base uint64
	size uint64
}

// handleMemCopy orchestrates memory_copy (Table 1): copy all bytes of
// the source Memory object into the destination, wherever either
// lives. The invoking Process's Controller drives the copy.
//
// The prototype's RoCE NICs lack third-party RDMA (§4's limitation),
// so the default datapath stages data through bounce buffers in the
// Controller: RDMA-read a chunk from the source arena, RDMA-write it
// to the destination arena, double-buffered for copies larger than one
// chunk (§6.1). With cfg.HWCopies the Controller instead commands a
// direct third-party transfer ("HW copies" in Figure 5).
func (c *Controller) handleMemCopy(ps *procState, m *wire.MemCopy) {
	src, st := c.resolveEntry(ps, m.SrcCid, cap.KindMemory, cap.Read)
	if st != wire.StatusOK {
		c.complete(ps, m.Token, st, cap.NilCap, 0)
		return
	}
	dst, st := c.resolveEntry(ps, m.DstCid, cap.KindMemory, cap.Write)
	if st != wire.StatusOK {
		c.complete(ps, m.Token, st, cap.NilCap, 0)
		return
	}
	token := m.Token
	// The copy spans several network round trips; run it as a sub-task
	// so the Controller keeps serving.
	c.k.Spawn(c.copyName, func(t *sim.Task) {
		c.runCopy(t, ps, token, src, dst)
	})
}

func (c *Controller) runCopy(t *sim.Task, ps *procState, token uint64, src, dst cap.Entry) {
	// The copy's futures, each Reset once waited for: one for the two
	// validations, one read and two write completions for every chunk.
	// They live and die with this copy, so the event of a write still on
	// the wire when the copy aborts fires on a future nobody reuses.
	var fut struct {
		loc sim.Future[wire.CtrlValInfo]
		rd  sim.Future[int]
		wr  [2]sim.Future[int]
	}
	srcLoc, st := c.locate(t, &fut.loc, src.Ref, cap.Read)
	if st != wire.StatusOK {
		c.complete(ps, token, st, cap.NilCap, 0)
		return
	}
	dstLoc, st := c.locate(t, &fut.loc, dst.Ref, cap.Write)
	if st != wire.StatusOK {
		c.complete(ps, token, st, cap.NilCap, 0)
		return
	}
	n := int(srcLoc.size)
	if dstLoc.size < srcLoc.size {
		c.complete(ps, token, wire.StatusBounds, cap.NilCap, 0)
		return
	}

	if c.cfg.HWCopies {
		// Third-party RDMA: one direct transfer, no staging.
		_, err := c.net.RDMACopy(c.ep.ID,
			fabricEP(srcLoc.ep), int(srcLoc.base),
			fabricEP(dstLoc.ep), int(dstLoc.base), n).Wait(t)
		if err != nil {
			c.complete(ps, token, wire.StatusAborted, cap.NilCap, 0)
			return
		}
		c.metrics.CopyBytes += int64(n)
		c.complete(ps, token, wire.StatusOK, cap.NilCap, uint64(n))
		return
	}

	// Bounce-buffer datapath.
	c.bounceSem.Acquire(t)
	bufs := [2]int{c.popBounce(), c.popBounce()}
	defer func() {
		c.pushBounce(bufs[0])
		c.pushBounce(bufs[1])
		c.bounceSem.Release()
	}()

	chunk := c.cfg.BounceChunk
	perChunk := c.cfg.Perf.PerChunk.On(c.cfg.Loc.Domain)
	var writing [2]bool // the bounce buffer's write-out is outstanding
	for off, i := 0, 0; off < n; off, i = off+chunk, i+1 {
		cn := chunk
		if n-off < cn {
			cn = n - off
		}
		b := i % 2
		// Reusing a bounce buffer requires its previous write-out to
		// have drained.
		if writing[b] {
			if _, err := fut.wr[b].Wait(t); err != nil {
				c.complete(ps, token, wire.StatusAborted, cap.NilCap, 0)
				return
			}
			fut.wr[b].Reset()
			writing[b] = false
		}
		t.Sleep(perChunk)
		c.net.RDMAReadInto(&fut.rd, c.ep.ID, bufs[b], fabricEP(srcLoc.ep), int(srcLoc.base)+off, cn)
		if _, err := fut.rd.Wait(t); err != nil {
			c.complete(ps, token, wire.StatusAborted, cap.NilCap, 0)
			return
		}
		fut.rd.Reset()
		// Write out asynchronously: the next chunk's read overlaps
		// with this write (double buffering).
		c.net.RDMAWriteInto(&fut.wr[b], c.ep.ID, bufs[b], fabricEP(dstLoc.ep), int(dstLoc.base)+off, cn)
		writing[b] = true
		if c.cfg.SingleBuffer {
			if _, err := fut.wr[b].Wait(t); err != nil {
				c.complete(ps, token, wire.StatusAborted, cap.NilCap, 0)
				return
			}
			fut.wr[b].Reset()
			writing[b] = false
		}
	}
	for b := range writing {
		if writing[b] {
			if _, err := fut.wr[b].Wait(t); err != nil {
				c.complete(ps, token, wire.StatusAborted, cap.NilCap, 0)
				return
			}
		}
	}
	c.metrics.CopyBytes += int64(n)
	c.complete(ps, token, wire.StatusOK, cap.NilCap, uint64(n))
}

// locate resolves a Memory reference to its physical location,
// contacting the owner for remote objects (every use validates at the
// owner, which is what makes revocation immediate, §3.5) and waiting
// for its answer on f, which it leaves unresolved again.
func (c *Controller) locate(t *sim.Task, f *sim.Future[wire.CtrlValInfo], ref cap.Ref, need cap.Rights) (memLoc, wire.Status) {
	if ref.Ctrl == c.id {
		n, st := c.Validate(ref, need)
		if st != wire.StatusOK {
			return memLoc{}, st
		}
		mo, ok := n.Payload.(*memObject)
		if !ok {
			return memLoc{}, wire.StatusKind
		}
		return memLoc{ep: uint32(mo.ep), base: mo.base, size: mo.size}, wire.StatusOK
	}
	pc := c.newCall(callValidate, ref)
	pc.rights = need
	pc.fut = f
	c.call(pc)
	info, err := f.Wait(t)
	f.Reset()
	if err != nil {
		return memLoc{}, wire.StatusAborted
	}
	if info.Status != wire.StatusOK {
		return memLoc{}, info.Status
	}
	return memLoc{ep: info.Endpoint, base: info.Base, size: info.Size}, wire.StatusOK
}

func (c *Controller) popBounce() int {
	off := c.bounceFree[len(c.bounceFree)-1]
	c.bounceFree = c.bounceFree[:len(c.bounceFree)-1]
	return off
}

func (c *Controller) pushBounce(off int) {
	c.bounceFree = append(c.bounceFree, off)
}
