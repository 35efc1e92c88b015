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

// Volume is one logical volume (file extent).
type Volume interface {
	// ReadAt fills stage with n bytes at off; returns an FS status.
	ReadAt(t *sim.Task, off, n uint64, stage Stage) uint64
	// WriteAt stores n bytes from stage at off.
	WriteAt(t *sim.Task, off, n uint64, stage Stage) uint64
}

// Stage is an FS staging-buffer view handed to a backend: the Memory
// capability (for Request-based backends) and the raw bytes (for
// kernel-bypass backends that fill the buffer directly).
type Stage struct {
	Cap proc.Cap
	Buf []byte
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

// NewFractOSBackend wires the FS's Process to a block adaptor's
// VolCreate Request (already granted to p).
func NewFractOSBackend(p *proc.Process, volCreate proc.Cap) Backend {
	return &fractosBackend{p: p, volCreate: volCreate}
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

func (v *fractosVolume) ReadAt(t *sim.Task, off, n uint64, stage Stage) uint64 {
	return v.call(t, v.rd, off, n, stage)
}

func (v *fractosVolume) WriteAt(t *sim.Task, off, n uint64, stage Stage) uint64 {
	return v.call(t, v.wr, off, n, stage)
}

// call invokes one of the volume's device Requests on n bytes at off.
//
//fractos:ordered
func (v *fractosVolume) call(t *sim.Task, req proc.Cap, off, n uint64, stage Stage) uint64 {
	reply, err := v.p.Call(t, req,
		[]wire.ImmArg{proc.U64Arg(nvme.ImmOff, off), proc.U64Arg(nvme.ImmLen, n)},
		[]proc.Arg{{Slot: nvme.SlotData, Cap: stage.Cap}}, nvme.SlotCont)
	if err != nil {
		return StatusIOErr
	}
	if reply.U64(0) != 0 {
		return StatusIOErr
	}
	return StatusOK
}

func (v *fractosVolume) LeaseRead(t *sim.Task) (proc.Cap, error)  { return v.p.Revtree(t, v.rd) }
func (v *fractosVolume) LeaseWrite(t *sim.Task) (proc.Cap, error) { return v.p.Revtree(t, v.wr) }
