package fs

import (
	"fractos/internal/device/nvme"
	"fractos/internal/proc"
	"fractos/internal/wire"
)

// handleIO serves an FS-mediated read or write (FS mode) in kernel
// context: every byte is staged through the FS Process's memory between
// the client and the block device — the centralized model whose extra
// network transfer DAX eliminates (§6.4). A request that passes its
// checks is an ioOp.
func (s *Service) handleIO(d *proc.Delivery, isWrite bool) {
	if d.Upstream(SlotCont) {
		d.Finish()
		return
	}
	f, ok := s.byID[d.U64(FSImmFile)]
	off, n := d.U64(FSImmOff), d.U64(FSImmLen)
	data, hasData := d.Cap(SlotData)
	st := StatusOK
	switch {
	case !ok:
		st = StatusNoFile
	case n == 0 || n > f.size || off > f.size-n:
		st = StatusBounds
	case !hasData || data.Size() != n:
		st = StatusBadArg
	}
	if st != StatusOK {
		d.ReplyStatus(SlotCont, st)
		d.Finish()
		return
	}
	op := s.getIO()
	op.d, op.isWrite, op.f, op.off, op.n, op.data = d, isWrite, f, off, n, data
	op.start()
}

// ioOp is an FS-mode read or write in progress: a pooled record that
// walks the extents [off, off+n) covers, one span at a time through one
// staging buffer. A read's span goes volume → staging → memory_copy out,
// a write's memory_copy in → staging → volume, each landing at [done,
// done+span) of the client's Memory; a failed step ends the op.
type ioOp struct {
	s       *Service
	d       *proc.Delivery
	isWrite bool
	f       *file
	off, n  uint64 // in the file
	done    uint64 // bytes moved so far
	span    uint64 // bytes the span in progress moves
	data    proc.Cap
	sb      nvme.Stage
}

func (s *Service) getIO() *ioOp {
	op := s.ios.Get()
	op.s = s
	return op
}

func (s *Service) putIO(op *ioOp) {
	*op = ioOp{}
	s.ios.Put(op)
}

// start asks for the op's staging buffer.
func (op *ioOp) start() { op.s.stages.Take(op) }

// Staged implements nvme.StageWaiter: the op starts on its first span.
func (op *ioOp) Staged(sb nvme.Stage) {
	op.sb = sb
	op.next()
}

// next starts the next span, the rest of the extent the op has reached,
// or ends the op once it has moved all its bytes.
func (op *ioOp) next() {
	vol, eo := op.extent()
	switch {
	case op.done == op.n:
		op.end(StatusOK)
	case vol == nil:
		op.end(StatusBounds)
	case op.isWrite:
		op.span = min(ExtentSize-eo, op.n-op.done)
		op.copy(op.data, op.done, op.sb.Cap, 0)
	default:
		op.span = min(ExtentSize-eo, op.n-op.done)
		vol.ReadAt(eo, op.span, op.sb, op)
	}
}

// extent returns the volume the op has reached, nil past the file's
// extents, and the offset in it.
func (op *ioOp) extent() (Volume, uint64) {
	cur := op.off + op.done
	if ei := cur / ExtentSize; ei < uint64(len(op.f.extents)) {
		return op.f.extents[ei].vol, cur % ExtentSize
	}
	return nil, 0
}

// copy posts the span's memory_copy between the client's Memory and the
// staging buffer.
func (op *ioOp) copy(src proc.Cap, srcOff uint64, dst proc.Cap, dstOff uint64) {
	if err := op.s.P.MemoryCopyThen(src, srcOff, dst, dstOff, op.span, op); err != nil {
		op.end(StatusIOErr)
	}
}

// Completed implements proc.Waiter: the span's memory_copy is over.
func (op *ioOp) Completed(m *wire.Completion) { op.stepped(m.Status != wire.StatusOK, true) }

// Called implements proc.CallWaiter: a FractOS volume's block device
// answered the span's access.
func (op *ioOp) Called(dv *proc.Delivery) { op.stepped(dv == nil || dv.U64(0) != nvme.StatusOK, false) }

// Done implements Waiter: the span's volume access is over.
func (op *ioOp) Done(err error) { op.stepped(err != nil, false) }

// stepped moves the op on from a step of its span, the memory_copy
// (copied) or the volume access: to the span's other step, or to the
// next span once both are over.
func (op *ioOp) stepped(failed, copied bool) {
	switch {
	case failed:
		op.end(StatusIOErr)
	case copied != op.isWrite:
		op.done += op.span
		op.next()
	case copied:
		vol, eo := op.extent()
		vol.WriteAt(eo, op.span, op.sb, op)
	default:
		op.copy(op.sb.Cap, 0, op.data, op.done)
	}
}

// end answers the request with st and frees the op and its staging
// buffer.
func (op *ioOp) end(st uint64) {
	s, d, sb := op.s, op.d, op.sb
	s.putIO(op)
	d.ReplyStatus(SlotCont, st)
	d.Finish()
	s.stages.Put(sb)
}
