package core

import (
	"fractos/internal/assert"
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

// handleMemCopy orchestrates memory_copy (Table 1): copy the source Memory
// object, or the range of it the syscall names, into the destination,
// wherever either lives. The invoking Process's Controller drives the copy.
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
	// The copy spans several network round trips: an op carries it from
	// event to event while the Controller keeps serving.
	op := c.getCopyOp(ps, m.Token)
	op.src, op.dst = src.Ref, dst.Ref
	op.srcOff, op.dstOff, op.length = m.SrcOff, m.DstOff, m.Len
	c.startCopy(op)
}

// copyOp is one memory_copy in progress: the Controller's copy engine
// is a state machine stepped in kernel context by the very events the
// copy waits for — a validation answer, a bounce pair coming free, the
// chunk's processing time, an RDMA completion — so a copy costs those
// events and no others. It is a pooled record, and the target of its
// own events (the copy* types below): it returns to the pool only once
// it has completed its syscall and none of its RDMA completions is
// outstanding, so the write still on the wire when a copy aborts lands
// on its own op.
//
// Per chunk the op runs §6.1's loop: wait until the chunk's bounce
// buffer (they alternate) has drained its previous write-out, spend the
// per-chunk processing time, read the chunk in, write it out — and go
// on to the next chunk without waiting for that write, so it overlaps
// the next read (double buffering; cfg.SingleBuffer waits). An RDMA op
// fails only when it is issued (fabric.Net.RDMAReadThen), and that
// aborts the copy on the spot.
type copyOp struct {
	c     *Controller
	ps    *procState // the syscall to complete
	token uint64
	state copyState

	src, dst               cap.Ref
	srcLoc, dstLoc         memLoc
	srcOff, dstOff, length uint64 // the range asked for in each; length 0: the whole source

	n, off, i int     // bytes to move; the current chunk's offset and index
	bufs      [2]int  // the bounce pair (arena offsets) while held: chunk i stages through bufs[i%2]
	held      bool    // bufs are ours to give back
	writing   [2]bool // the bounce buffer's write-out is on the wire
	inflight  int     // RDMA completions outstanding
}

// copyState says what a copy is waiting for.
type copyState uint8

const (
	copyFree       copyState = iota // on the free list
	copyLocateSrc                   // the source's owner, to validate and locate it
	copyLocateDst                   // the destination's owner
	copyQueued                      // a free bounce pair (Controller.copyWait)
	copyBufferBusy                  // the chunk's bounce buffer, still writing out the chunk before last
	copyChunkCost                   // the chunk's processing time
	copyReading                     // the chunk's read
	copyWriting                     // the chunk's write (SingleBuffer only)
	copyDraining                    // the last write-outs
	copyHW                          // the third-party transfer (HWCopies)
	copyDone                        // nothing: completed, and parked until its last RDMA completion has fired
)

// The op as the target of each event it waits for. Distinct types of
// the one struct, so naming the target costs neither storage nor a
// closure (sim.Future.Due's idiom).
type (
	copyCostDue  copyOp // the chunk's processing time is over
	copyReadDone copyOp
	copyWrote0   copyOp // bounce buffer 0 has drained
	copyWrote1   copyOp
	copyHWDone   copyOp
)

//fractos:hotpath
func (e *copyCostDue) Fire() { (*copyOp)(e).read() }

//fractos:hotpath
func (e *copyReadDone) Fire() { (*copyOp)(e).readDone() }

//fractos:hotpath
func (e *copyWrote0) Fire() { (*copyOp)(e).wrote(0) }

//fractos:hotpath
func (e *copyWrote1) Fire() { (*copyOp)(e).wrote(1) }

//fractos:hotpath
func (e *copyHWDone) Fire() { (*copyOp)(e).hwDone() }

//fractos:pool-acquire copyop
func (c *Controller) getCopyOp(ps *procState, token uint64) *copyOp {
	op := c.copyOps.Get()
	*op = copyOp{c: c, ps: ps, token: token}
	c.copyLive++
	return op
}

// putCopyOp clears an op, so that an event that outlived it trips the
// assert every step starts with, and returns it to the free list —
// except under the race detector (poison_race.go), where a released op
// stays cleared for good.
//
//fractos:hotpath
//fractos:pool-release copyop
func (c *Controller) putCopyOp(op *copyOp) {
	assert.True(op.inflight == 0 && !op.held, "core: copy op released with RDMA completions or bounce buffers outstanding")
	*op = copyOp{}
	c.copyLive--
	if recycleCopyOps {
		c.copyOps.Put(op)
	}
}

// startCopy takes over the op and, with it, the handler's duty to
// complete the syscall: finish discharges it exactly once.
//
//fractos:pool-handoff copyop
//fractos:completes 1
func (c *Controller) startCopy(op *copyOp) {
	op.state = copyLocateSrc
	op.locate(op.src, cap.Read)
}

// locate resolves a Memory reference to its physical location and
// passes it to located: at once for an object of our own, else from the
// continuation of a callValidate — every use validates at the owner,
// which is what makes revocation immediate (§3.5).
func (op *copyOp) locate(ref cap.Ref, need cap.Rights) {
	c := op.c
	if ref.Ctrl != c.id {
		pc := c.newCall(callValidate, ref)
		pc.rights, pc.copy = need, op
		c.call(pc)
		return
	}
	n, st := c.Validate(ref, need)
	if st != wire.StatusOK {
		op.located(memLoc{}, st)
		return
	}
	mo, ok := n.Payload.(*memObject)
	if !ok {
		op.located(memLoc{}, wire.StatusKind)
		return
	}
	op.located(memLoc{ep: uint32(mo.ep), base: mo.base, size: mo.size}, wire.StatusOK)
}

// located resumes the copy with the answer to locate: the source's
// location, then the destination's, then the transfer.
func (op *copyOp) located(loc memLoc, st wire.Status) {
	switch {
	case st != wire.StatusOK:
		op.finish(st, 0)
	case op.state == copyLocateSrc:
		op.srcLoc, op.state = loc, copyLocateDst
		op.locate(op.dst, cap.Write)
	default:
		op.dstLoc = loc
		op.transfer()
	}
}

// transfer starts moving the bytes: the one third-party RDMA op with
// cfg.HWCopies, else the bounce-buffer datapath once a bounce pair is
// free — copies wait for one in arrival order, so DefaultBouncePairs
// bounds how many stage data at once.
func (op *copyOp) transfer() {
	c := op.c
	n := op.length
	if n == 0 {
		n = op.srcLoc.size
	}
	if !wire.Within(op.srcOff, n, op.srcLoc.size) || !wire.Within(op.dstOff, n, op.dstLoc.size) {
		op.finish(wire.StatusBounds, 0)
		return
	}
	op.srcLoc.base += op.srcOff
	op.dstLoc.base += op.dstOff
	op.n = int(n)
	if c.cfg.HWCopies {
		err := c.net.RDMACopyThen((*copyHWDone)(op), c.ep.ID,
			fabricEP(op.srcLoc.ep), int(op.srcLoc.base),
			fabricEP(op.dstLoc.ep), int(op.dstLoc.base), op.n)
		if err != nil {
			op.finish(wire.StatusAborted, 0)
			return
		}
		op.inflight++
		op.state = copyHW
		return
	}
	if len(c.bounceFree) < 2 {
		op.state = copyQueued
		c.copyWait = append(c.copyWait, op)
		return
	}
	op.admit()
}

// admit hands the copy a bounce pair and starts on its first chunk.
//
//fractos:hotpath
func (op *copyOp) admit() {
	c := op.c
	op.bufs, op.held = [2]int{c.popBounce(), c.popBounce()}, true
	op.chunk()
}

// chunk starts on the chunk at op.off — once its bounce buffer has
// drained, with the per-chunk processing time — or, past the last one,
// waits out the writes still on the wire.
//
//fractos:hotpath
func (op *copyOp) chunk() {
	c := op.c
	switch {
	case op.off >= op.n:
		if op.writing[0] || op.writing[1] {
			op.state = copyDraining
			return
		}
		c.metrics.CopyBytes += int64(op.n)
		op.finish(wire.StatusOK, uint64(op.n))
	case op.writing[op.i%2]:
		op.state = copyBufferBusy
	default:
		op.state = copyChunkCost
		c.k.AfterCall(c.perf.PerChunk.On(c.cfg.Loc.Domain), (*copyCostDue)(op))
	}
}

// chunkLen is the length of the current chunk.
//
//fractos:hotpath
func (op *copyOp) chunkLen() int { return min(DefaultBounceChunk, op.n-op.off) }

// read brings the current chunk into its bounce buffer.
//
//fractos:hotpath
func (op *copyOp) read() {
	c := op.expect(copyChunkCost)
	err := c.net.RDMAReadThen((*copyReadDone)(op), c.ep.ID, op.bufs[op.i%2],
		fabricEP(op.srcLoc.ep), int(op.srcLoc.base)+op.off, op.chunkLen())
	if err != nil {
		op.finish(wire.StatusAborted, 0)
		return
	}
	op.inflight++
	op.state = copyReading
}

// readDone writes the chunk out and moves on: the next chunk's read
// overlaps this write.
//
//fractos:hotpath
func (op *copyOp) readDone() {
	c := op.expect(copyReading)
	op.inflight--
	b := op.i % 2
	done := sim.Callback((*copyWrote0)(op))
	if b == 1 {
		done = (*copyWrote1)(op)
	}
	err := c.net.RDMAWriteThen(done, c.ep.ID, op.bufs[b],
		fabricEP(op.dstLoc.ep), int(op.dstLoc.base)+op.off, op.chunkLen())
	if err != nil {
		op.finish(wire.StatusAborted, 0)
		return
	}
	op.inflight++
	op.writing[b] = true
	if c.cfg.SingleBuffer {
		op.state = copyWriting
		return
	}
	op.nextChunk()
}

//fractos:hotpath
func (op *copyOp) nextChunk() {
	op.off += DefaultBounceChunk
	op.i++
	op.chunk()
}

// wrote records that bounce buffer b has drained, and resumes a copy
// that was waiting for that.
//
//fractos:hotpath
func (op *copyOp) wrote(b int) {
	c := op.c
	assert.True(c != nil && op.writing[b], "core: write completion on a copy op with no such write outstanding")
	op.inflight--
	op.writing[b] = false
	switch op.state {
	case copyBufferBusy, copyDraining:
		op.chunk()
	case copyWriting:
		op.nextChunk()
	case copyDone:
		// The copy aborted with this write on the wire.
		if op.inflight == 0 {
			c.putCopyOp(op)
		}
	}
}

//fractos:hotpath
func (op *copyOp) hwDone() {
	c := op.expect(copyHW)
	op.inflight--
	c.metrics.CopyBytes += int64(op.n)
	op.finish(wire.StatusOK, uint64(op.n))
}

// expect is the Controller of an op whose event fired, having checked
// that the op was waiting for it: a released op waits for nothing.
//
//fractos:hotpath
func (op *copyOp) expect(waitingFor copyState) *Controller {
	assert.True(op.c != nil && op.state == waitingFor, "core: event fired on a copy op that was not waiting for it")
	return op.c
}

// finish ends the copy: complete the syscall, pass the bounce pair on
// to the copy that has waited longest, and recycle the op — now, or
// when the last write it has on the wire completes.
//
//fractos:hotpath
func (op *copyOp) finish(st wire.Status, aux uint64) {
	c := op.c
	assert.True(op.state != copyDone, "core: copy finished twice")
	c.complete(op.ps, op.token, st, cap.NilCap, aux)
	op.state = copyDone
	if op.held {
		op.held = false
		c.pushBounce(op.bufs[0])
		c.pushBounce(op.bufs[1])
		if len(c.copyWait) > 0 {
			var next *copyOp
			next, c.copyWait = popFront(c.copyWait)
			next.admit()
		}
	}
	if op.inflight == 0 {
		c.putCopyOp(op)
	}
}

//fractos:hotpath
func (c *Controller) popBounce() int {
	off := c.bounceFree[len(c.bounceFree)-1]
	c.bounceFree = c.bounceFree[:len(c.bounceFree)-1]
	return off
}

// pushBounce returns a chunk to the pool, which New sized for all of
// them.
//
//fractos:hotpath
func (c *Controller) pushBounce(off int) {
	c.bounceFree = c.bounceFree[:len(c.bounceFree)+1]
	c.bounceFree[len(c.bounceFree)-1] = off
}
