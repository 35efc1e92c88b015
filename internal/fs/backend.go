package fs

import (
	"fractos/internal/device/nvme"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// Backend abstracts the block layer underneath the FS service. The
// FractOS stack uses the block-device adaptor through Requests; the
// paper's Disaggregated Baseline (§6.4) plugs the same FS service onto
// an NVMe-oF initiator instead.
type Backend interface {
	// CreateVolume allocates one extent-sized logical volume.
	CreateVolume(t *sim.Task, size uint64) (Volume, error)
}

// Volume is one logical volume (file extent). Its accesses run in
// kernel context: each starts its I/O and returns, and steps w when it
// is over.
type Volume interface {
	// ReadAt fills stage with n bytes at off.
	ReadAt(off, n uint64, stage nvme.Stage, w Waiter)
	// WriteAt stores n bytes from stage at off.
	WriteAt(off, n uint64, stage nvme.Stage, w Waiter)
}

// Waiter is the FS-mode operation a volume access is a step of. A
// FractOS volume ends the access with its block device's reply
// (proc.CallWaiter), another backend with Done: nil, or why it failed.
type Waiter interface {
	proc.CallWaiter
	Done(err error)
}

// DAXVolume is a Volume whose backend can delegate direct,
// individually revocable block access to clients — only the FractOS
// block adaptor supports this; it is exactly the capability the
// baselines lack (§6.4).
type DAXVolume interface {
	Volume
	// LeaseRead/LeaseWrite derive fresh revocable leases of the
	// volume's read/write Requests.
	LeaseRead(t *sim.Task) (proc.Cap, error)
	LeaseWrite(t *sim.Task) (proc.Cap, error)
}

// fractosBackend drives the FractOS block-device adaptor.
type fractosBackend struct {
	p         *proc.Process
	volCreate proc.Cap
}

func (b *fractosBackend) CreateVolume(t *sim.Task, size uint64) (Volume, error) {
	reply, err := b.p.Call(t, b.volCreate,
		[]wire.ImmArg{proc.U64Arg(nvme.ImmVol, size)}, nil, nvme.SlotCont)
	if err != nil {
		return nil, err
	}
	if st := reply.U64(0); st != 0 {
		return nil, fsErr(StatusNoSpace)
	}
	rd, ok1 := reply.Cap(nvme.SlotVolRead)
	wr, ok2 := reply.Cap(nvme.SlotVolWrite)
	if !ok1 || !ok2 {
		return nil, fsErr(StatusIOErr)
	}
	return &fractosVolume{p: b.p, rd: rd, wr: wr}, nil
}

type fractosVolume struct {
	p      *proc.Process
	rd, wr proc.Cap
}

func (v *fractosVolume) ReadAt(off, n uint64, stage nvme.Stage, w Waiter) {
	v.call(v.rd, off, n, stage, w)
}

func (v *fractosVolume) WriteAt(off, n uint64, stage nvme.Stage, w Waiter) {
	v.call(v.wr, off, n, stage, w)
}

// call invokes one of the volume's device Requests on n bytes at off.
//
//fractos:ordered
func (v *fractosVolume) call(req proc.Cap, off, n uint64, stage nvme.Stage, w Waiter) {
	v.p.CallThen(req, []wire.ImmArg{proc.U64Arg(nvme.ImmOff, off), proc.U64Arg(nvme.ImmLen, n)},
		[]proc.Arg{{Slot: nvme.SlotData, Cap: stage.Cap}}, nvme.SlotCont, w)
}

func (v *fractosVolume) LeaseRead(t *sim.Task) (proc.Cap, error)  { return v.p.Revtree(t, v.rd) }
func (v *fractosVolume) LeaseWrite(t *sim.Task) (proc.Cap, error) { return v.p.Revtree(t, v.wr) }
