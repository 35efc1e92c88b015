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
// copy waits for — a validation answer, a bounce pair coming free, a
// chunk's timer, a read's completion, the last write-out's — so a copy
// costs those events and no others. It is a pooled record, and the
// target of its own events (the copy* types below). It ends only inside
// an event it waited for, with none of them outstanding, and returns to
// the pool at once.
//
// Per chunk the op runs §6.1's loop: a timer, then a read into the
// chunk's bounce buffer (they alternate), then a write-out once the
// read lands, never waited for (double buffering). Two reads may be in
// flight, one per buffer, each posted once its buffer has drained its
// last write-out and the per-chunk time is spent, but no sooner than
// the instant that puts its bytes on the source's link right behind
// the chunk before (fabric.Net.RDMAReadThen returns it): the link
// carries the copy back to back with at most one of its chunks queued.
// cfg.SingleBuffer keeps one chunk in motion. A write's completion
// instant is fixed when it is issued (fabric.Net.RDMAWriteAt), so the
// op keeps it instead of waiting for an event. An RDMA op fails only
// when it is issued, and that aborts the copy on the spot: the syscall
// completes, the chunk timer is stopped, and the bounce pair goes back
// to the pool with the instants its writes drain at — once the reads
// in flight have landed, for their NIC is still writing into it.
type copyOp struct {
	c     *Controller
	ps    *procState // the syscall to complete
	token uint64
	state copyState

	src, dst               cap.Ref
	srcLoc, dstLoc         memLoc
	srcOff, dstOff, length uint64 // the range asked for in each; length 0: the whole source

	n            int         // bytes to move
	read, landed int         // chunks whose reads were posted; whose reads have landed, in order
	next         sim.Time    // the instant that puts the next read's bytes behind the last one's
	timer        sim.Timer   // the next chunk's (copyArmed)
	bufs         [2]int      // the bounce pair (arena offsets) while held: chunk i stages through bufs[i%2]
	drained      [2]sim.Time // when each bounce buffer's last write-out completes
	held         bool        // bufs are ours to give back
}

// copyState says what a copy is waiting for.
type copyState uint8

const (
	copyFree      copyState = iota // on the free list
	copyLocateSrc                  // the source's owner, to validate and locate it
	copyLocateDst                  // the destination's owner
	copyQueued                     // a free bounce pair (Controller.copyWait)
	copyMoving                     // reads in flight
	copyArmed                      // the next chunk's timer, and reads in flight
	copyAborted                    // answered: the reads in flight to land
	copyDraining                   // the last write-outs
	copyHW                         // the third-party transfer (HWCopies)
)

// The op as the target of each event it waits for. Distinct types of
// the one struct, so naming the target costs neither storage nor a
// closure (sim.Future.Due's idiom).
type (
	copyChunkDue copyOp // the next chunk's read is due
	copyReadDone copyOp
	copyDrained  copyOp // every write-out has completed
	copyHWDone   copyOp
)

func (e *copyChunkDue) Fire() { (*copyOp)(e).post() }

func (e *copyReadDone) Fire() { (*copyOp)(e).land() }

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

// admit hands the copy a bounce pair and arms its first chunk.
func (op *copyOp) admit() {
	c := op.c
	b0, b1 := c.popBounce(), c.popBounce()
	op.bufs, op.drained, op.held = [2]int{b0.off, b1.off}, [2]sim.Time{b0.drained, b1.drained}, true
	op.state = copyMoving
	op.arm()
}

// arm starts the timer of the next chunk to read, unless it runs
// already or the chunk's buffer still waits for a read to land (with
// cfg.SingleBuffer, either buffer). Past the last chunk, once every
// read has landed, it waits out the writes still on the wire.
func (op *copyOp) arm() {
	c := op.c
	now := c.k.Now()
	if op.read*DefaultBounceChunk >= op.n {
		if op.landed < op.read {
			return
		}
		op.state = copyDraining
		if last := max(op.drained[0], op.drained[1]); last > now {
			c.k.AfterCall(last-now, (*copyDrained)(op))
			return
		}
		op.done()
		return
	}
	ready, busy := op.drained[op.read%2], op.read-op.landed == 2
	if c.cfg.SingleBuffer {
		ready, busy = max(op.drained[0], op.drained[1]), op.read > op.landed
	}
	if op.state == copyArmed || busy {
		return
	}
	at := max(max(ready, now)+c.perf.PerChunk.On(c.cfg.Loc.Domain), op.next)
	op.timer, op.state = c.k.AfterCall(at-now, (*copyChunkDue)(op)), copyArmed
}

// chunkLen is the length of the chunk at off.
func (op *copyOp) chunkLen(off int) int { return min(DefaultBounceChunk, op.n-off) }

// post reads the armed chunk into its bounce buffer.
func (op *copyOp) post() {
	c := op.expect(copyArmed)
	op.state = copyMoving
	off := op.read * DefaultBounceChunk
	next, err := c.net.RDMAReadThen((*copyReadDone)(op), c.ep.ID, op.bufs[op.read%2],
		fabricEP(op.srcLoc.ep), int(op.srcLoc.base)+off, op.chunkLen(off))
	if err != nil {
		op.finish(wire.StatusAborted, 0)
		return
	}
	op.read, op.next = op.read+1, next
	op.arm()
}

// land writes out the chunk whose read has landed, and arms the next:
// its buffer's drain instant is known now.
func (op *copyOp) land() {
	c := op.c
	assert.True(c != nil && op.landed < op.read, "core: a read landed on a copy op that had none in flight")
	i := op.landed
	op.landed++
	if op.state == copyAborted {
		op.release()
		return
	}
	off := i * DefaultBounceChunk
	at, err := c.net.RDMAWriteAt(c.ep.ID, op.bufs[i%2],
		fabricEP(op.dstLoc.ep), int(op.dstLoc.base)+off, op.chunkLen(off))
	if err != nil {
		op.finish(wire.StatusAborted, 0)
		return
	}
	op.drained[i%2] = at
	op.arm()
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

// finish completes the syscall and stops the chunk timer, if armed.
func (op *copyOp) finish(st wire.Status, aux uint64) {
	op.c.complete(op.ps, op.token, st, cap.NilCap, aux)
	op.timer.Stop()
	op.state = copyAborted
	op.release()
}

// release waits for the reads in flight to land, then passes the bounce
// pair on — with the instants its write-outs drain at — to the copy
// that has waited longest, and recycles the op.
func (op *copyOp) release() {
	c := op.c
	if op.landed < op.read {
		return
	}
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
