package fs

import (
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// Dynamic composition (§3.4): besides the fully mediated FS mode and
// the lease-delegating DAX mode, the FS offers *direct* per-request
// operations. The client invokes the FS with its own Memory buffer and
// continuation Request as arguments; the FS refines its block-device
// Request with exactly those arguments and invokes it. The block
// device then moves the data to/from the client and invokes the
// client's continuation itself — the FS drops out of both the data
// path and the response path for that request, without ever revealing
// its block-device capabilities to the client (Figure 2's d→e edges).
const (
	// TagReadDirect: imm[8:16) = file id (preset), [16:24) = offset,
	// [24:32) = length; caps: SlotData = destination Memory,
	// SlotCont = continuation, invoked by the block device with
	// imm[0:8) = status. imm[0:8) is reserved for upstream status, so
	// a direct write can serve as the continuation of a producer
	// (Figure 2's GPU → output storage edge).
	TagReadDirect uint64 = 0x34
	// TagWriteDirect: same, SlotData is the source Memory.
	TagWriteDirect uint64 = 0x35
)

// Reply slots for the direct per-file Requests in an Open reply
// (FS mode).
const (
	SlotFSReadDirect  uint16 = 2
	SlotFSWriteDirect uint16 = 3
)

// ComposableVolume is a Volume whose backend Request can be refined
// with caller-provided arguments — the mechanism behind direct
// operations. Only the FractOS block adaptor supports it.
type ComposableVolume interface {
	Volume
	// InvokeIO invokes the volume's read or write Request with the
	// given data Memory and continuation Request as arguments.
	InvokeIO(t *sim.Task, isWrite bool, off, n uint64, data, cont proc.Cap) error
}

// InvokeIO implements ComposableVolume for the FractOS backend: an
// invoke-time refinement of the per-volume block Request.
func (v *fractosVolume) InvokeIO(t *sim.Task, isWrite bool, off, n uint64, data, cont proc.Cap) error {
	req := v.rd
	if isWrite {
		req = v.wr
	}
	return v.p.Invoke(t, req,
		[]wire.ImmArg{proc.U64Arg(16, off), proc.U64Arg(24, n)},
		[]proc.Arg{{Slot: 0 /* nvme.SlotData */, Cap: data}, {Slot: 1 /* nvme.SlotCont */, Cap: cont}})
}

// handleDirect serves TagReadDirect/TagWriteDirect: compose the
// client's arguments into the block Request and get out of the way.
func (s *Service) handleDirect(t *sim.Task, d *proc.Delivery, isWrite bool) {
	// When this Request is itself a continuation of a failed producer,
	// propagate instead of running.
	if d.Upstream(SlotCont) {
		return
	}
	f, ok := s.byID[d.U64(FSImmFile)]
	if !ok {
		d.ReplyStatus(SlotCont, StatusNoFile)
		return
	}
	off, n := d.U64(FSImmOff), d.U64(FSImmLen)
	if n == 0 || n > f.size || off > f.size-n {
		d.ReplyStatus(SlotCont, StatusBounds)
		return
	}
	// Direct operations must not cross an extent: one block Request
	// serves the whole transfer.
	if off/ExtentSize != (off+n-1)/ExtentSize {
		d.ReplyStatus(SlotCont, StatusBadArg)
		return
	}
	ext := f.extents[off/ExtentSize]
	cv, ok := ext.vol.(ComposableVolume)
	if !ok {
		d.ReplyStatus(SlotCont, StatusBadMode)
		return
	}
	data, ok1 := d.Cap(SlotData)
	cont, ok2 := d.Cap(SlotCont)
	if !ok1 || !ok2 {
		d.ReplyStatus(SlotCont, StatusBadArg)
		return
	}
	if err := cv.InvokeIO(t, isWrite, off%ExtentSize, n, data, cont); err != nil {
		d.ReplyStatus(SlotCont, StatusIOErr)
	}
	// No reply from the FS: the block device invokes the client's
	// continuation directly.
}

// DirectReadAt reads through the FS's direct path: the request is
// composed by the FS, but the data and the completion come straight
// from the block device.
func (f *File) DirectReadAt(t *sim.Task, off, n uint64, mem proc.Cap) error {
	return f.direct(t, off, n, mem, false)
}

// DirectWriteAt writes through the FS's direct path.
func (f *File) DirectWriteAt(t *sim.Task, off, n uint64, mem proc.Cap) error {
	return f.direct(t, off, n, mem, true)
}

func (f *File) direct(t *sim.Task, off, n uint64, mem proc.Cap, isWrite bool) error {
	if f.p == nil {
		return ErrClosed
	}
	req := f.fsReadD
	if isWrite {
		req = f.fsWriteD
	}
	if !req.Valid() {
		return ErrFS
	}
	d, err := f.p.Call(t, req,
		[]wire.ImmArg{proc.U64Arg(FSImmOff, off), proc.U64Arg(FSImmLen, n)},
		[]proc.Arg{{Slot: SlotData, Cap: mem}}, SlotCont)
	if err != nil {
		return err
	}
	return fsErr(d.U64(0))
}
