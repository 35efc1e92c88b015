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
// chunk's processing time, a read's completion, the last write-out's —
// so a copy costs those events and no others. It is a pooled record,
// and the target of its own events (the copy* types below). It ends
// only inside an event it waited for, so none of them is outstanding
// then, and it returns to the pool at once.
//
// Per chunk the op runs §6.1's loop: wait until the chunk's bounce
// buffer (they alternate) has drained its previous write-out, spend the
// per-chunk processing time, read the chunk in, write it out — and go
// on to the next chunk without waiting for that write, so it overlaps
// the next read (double buffering; cfg.SingleBuffer waits). A write's
// completion instant is fixed when it is issued
// (fabric.Net.RDMAWriteAt), so the op keeps that instant instead of
// waiting for an event: the wait for a buffer is part of the next
// chunk's timer. An RDMA op fails only when it is issued, and that
// aborts the copy on the spot; its bounce pair goes back to the pool
// with the instants its writes drain at, and the next copy to use the
// pair waits for them.
type copyOp struct {
	c     *Controller
	ps    *procState // the syscall to complete
	token uint64
	state copyState

	src, dst               cap.Ref
	srcLoc, dstLoc         memLoc
	srcOff, dstOff, length uint64 // the range asked for in each; length 0: the whole source

	n, off, i int         // bytes to move; the current chunk's offset and index
	bufs      [2]int      // the bounce pair (arena offsets) while held: chunk i stages through bufs[i%2]
	drained   [2]sim.Time // when each bounce buffer's last write-out completes
	held      bool        // bufs are ours to give back
}

// copyState says what a copy is waiting for.
type copyState uint8

const (
	copyFree      copyState = iota // on the free list
	copyLocateSrc                  // the source's owner, to validate and locate it
	copyLocateDst                  // the destination's owner
	copyQueued                     // a free bounce pair (Controller.copyWait)
	copyChunkCost                  // the chunk's bounce buffer to drain, then its processing time
	copyReading                    // the chunk's read
	copyDraining                   // the last write-outs
	copyHW                         // the third-party transfer (HWCopies)
)

// The op as the target of each event it waits for. Distinct types of
// the one struct, so naming the target costs neither storage nor a
// closure (sim.Future.Due's idiom).
type (
	copyCostDue  copyOp // the chunk's processing time is over
	copyReadDone copyOp
	copyDrained  copyOp // every write-out has completed
	copyHWDone   copyOp
)

func (e *copyCostDue) Fire() { (*copyOp)(e).read() }

func (e *copyReadDone) Fire() { (*copyOp)(e).readDone() }

func (e *copyDrained) Fire() {
	op := (*copyOp)(e)
	op.expect(copyDraining)
	op.done()
}

func (e *copyHWDone) Fire() {
	op := (*copyOp)(e)
	op.expect(copyHW)
	op.done()
}

func (c *Controller) getCopyOp(ps *procState, token uint64) *copyOp {
	op := c.copyOps.Get()
	*op = copyOp{c: c, ps: ps, token: token}
	return op
}

// putCopyOp clears an op, so that an event that outlived it trips the
// assert every step starts with, and returns it to the free list —
// except under the race detector (poison_race.go), where a released op
// stays cleared for good and is only counted back.
func (c *Controller) putCopyOp(op *copyOp) {
	assert.True(!op.held, "core: copy op released with its bounce pair")
	*op = copyOp{}
	if recycleCopyOps {
		c.copyOps.Put(op)
	} else {
		c.copyOps.Drop()
	}
}

// startCopy takes over the op and, with it, the handler's duty to
// complete the syscall: finish discharges it exactly once.
func (c *Controller) startCopy(op *copyOp) {
	op.state = copyLocateSrc
	op.locate(op.src, cap.Read)
}

// locate asks a Memory object's owner where its bytes are; the
// continuation of the callValidate passes the answer to located. Every
// use validates at the owner, which is what makes revocation immediate
// (§3.5).
func (op *copyOp) locate(ref cap.Ref, need cap.Rights) {
	pc := op.c.newCall(callValidate, ref)
	pc.rights, pc.copy = need, op
	op.c.ask(pc)
}

// ownLocate is the owner's validation for a copy: is the object live,
// does it convey the needed rights, and where do its bytes live.
func (c *Controller) ownLocate(ref cap.Ref, need cap.Rights) wire.CtrlValInfo {
	n, st := c.Validate(ref, need)
	if st != wire.StatusOK {
		return wire.CtrlValInfo{Status: st}
	}
	mo, ok := n.Payload.(*memObject)
	if !ok {
		return wire.CtrlValInfo{Status: wire.StatusKind}
	}
	return wire.CtrlValInfo{Status: wire.StatusOK, Endpoint: uint32(mo.ep), Base: mo.base, Size: mo.size, Rights: mo.rights}
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
func (op *copyOp) admit() {
	c := op.c
	b0, b1 := c.popBounce(), c.popBounce()
	op.bufs, op.drained, op.held = [2]int{b0.off, b1.off}, [2]sim.Time{b0.drained, b1.drained}, true
	op.chunk()
}

// chunk starts the timer of the chunk at op.off: the wait for its
// bounce buffer to drain, then the per-chunk processing time. Past the
// last chunk it waits out the writes still on the wire.
func (op *copyOp) chunk() {
	c := op.c
	now := c.k.Now()
	if op.off >= op.n {
		op.state = copyDraining
		if last := max(op.drained[0], op.drained[1]); last > now {
			c.k.AfterCall(last-now, (*copyDrained)(op))
			return
		}
		op.done()
		return
	}
	ready := op.drained[op.i%2]
	if c.cfg.SingleBuffer {
		ready = max(op.drained[0], op.drained[1])
	}
	op.state = copyChunkCost
	c.k.AfterCall(max(ready-now, 0)+c.perf.PerChunk.On(c.cfg.Loc.Domain), (*copyCostDue)(op))
}

// chunkLen is the length of the current chunk.
func (op *copyOp) chunkLen() int { return min(DefaultBounceChunk, op.n-op.off) }

// read brings the current chunk into its bounce buffer.
func (op *copyOp) read() {
	c := op.expect(copyChunkCost)
	err := c.net.RDMAReadThen((*copyReadDone)(op), c.ep.ID, op.bufs[op.i%2],
		fabricEP(op.srcLoc.ep), int(op.srcLoc.base)+op.off, op.chunkLen())
	if err != nil {
		op.finish(wire.StatusAborted, 0)
		return
	}
	op.state = copyReading
}

// readDone writes the chunk out and moves on: the next chunk's read
// overlaps this write.
func (op *copyOp) readDone() {
	c := op.expect(copyReading)
	b := op.i % 2
	at, err := c.net.RDMAWriteAt(c.ep.ID, op.bufs[b],
		fabricEP(op.dstLoc.ep), int(op.dstLoc.base)+op.off, op.chunkLen())
	if err != nil {
		op.finish(wire.StatusAborted, 0)
		return
	}
	op.drained[b] = at
	op.off += DefaultBounceChunk
	op.i++
	op.chunk()
}

// done completes a copy whose every byte has landed.
func (op *copyOp) done() {
	c := op.c
	c.metrics.CopyBytes += int64(op.n)
	op.finish(wire.StatusOK, uint64(op.n))
}

// expect is the Controller of an op whose event fired, having checked
// that the op was waiting for it: a released op waits for nothing.
func (op *copyOp) expect(waitingFor copyState) *Controller {
	assert.True(op.c != nil && op.state == waitingFor, "core: event fired on a copy op that was not waiting for it")
	return op.c
}

// finish ends the copy: complete the syscall, pass the bounce pair on
// — with the instants its write-outs drain at — to the copy that has
// waited longest, and recycle the op.
func (op *copyOp) finish(st wire.Status, aux uint64) {
	c := op.c
	c.complete(op.ps, op.token, st, cap.NilCap, aux)
	if op.held {
		op.held = false
		c.pushBounce(bounceChunk{op.bufs[0], op.drained[0]})
		c.pushBounce(bounceChunk{op.bufs[1], op.drained[1]})
		if len(c.copyWait) > 0 {
			var next *copyOp
			next, c.copyWait = popFront(c.copyWait)
			next.admit()
		}
	}
	c.putCopyOp(op)
}

// bounceChunk is a free bounce buffer: its offset in our arena, and the
// instant the last write-out staged through it drains — still ahead
// only when a copy aborted with that write on the wire.
type bounceChunk struct {
	off     int
	drained sim.Time
}

func (c *Controller) popBounce() bounceChunk {
	b := c.bounceFree[len(c.bounceFree)-1]
	c.bounceFree = c.bounceFree[:len(c.bounceFree)-1]
	return b
}

// pushBounce returns a chunk to the pool, which New sized for all of
// them.
func (c *Controller) pushBounce(b bounceChunk) {
	c.bounceFree = c.bounceFree[:len(c.bounceFree)+1]
	c.bounceFree[len(c.bounceFree)-1] = b
}
