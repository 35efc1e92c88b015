package fs

import (
	"errors"
	"fmt"

	"fractos/internal/device/nvme"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// File is a client-side handle to an open file. In FS mode it holds
// the mediated read/write Requests; in DAX mode it holds the
// block-device leases and drives the device directly.
type File struct {
	p      *proc.Process
	Name   string
	Size   uint64
	Handle uint64
	DAX    bool

	fsRead   proc.Cap
	fsWrite  proc.Cap
	fsReadD  proc.Cap
	fsWriteD proc.Cap

	extSize uint64
	daxRd   []proc.Cap
	daxWr   []proc.Cap

	closeReq proc.Cap
}

// Errors returned by the client library.
var (
	ErrFS     = errors.New("fs: operation failed")
	ErrClosed = errors.New("fs: file closed")
)

func fsErr(code uint64) error {
	if code == StatusOK {
		return nil
	}
	return fmt.Errorf("%w (status %d)", ErrFS, code)
}

// OpenFile opens (or creates) a file through the FS service's Open
// Request.
func OpenFile(t *sim.Task, p *proc.Process, open proc.Cap, name string, mode uint64, sizeHint uint64) (*File, error) {
	imms := []wire.ImmArg{
		proc.U64Arg(0, mode),
		proc.U64Arg(8, uint64(len(name))),
		proc.BytesArg(16, []byte(name)),
	}
	if mode&OpenCreate != 0 {
		imms = append(imms, proc.U64Arg(OpenSizeOff(len(name)), sizeHint))
	}
	d, err := p.Call(t, open, imms, nil, SlotCont)
	if err != nil {
		return nil, err
	}
	if st := d.U64(0); st != StatusOK {
		return nil, fsErr(st)
	}
	f := &File{
		p:       p,
		Name:    name,
		Size:    d.U64(8),
		Handle:  d.U64(32),
		DAX:     mode&OpenDAX != 0,
		extSize: d.U64(24),
	}
	nExt := int(d.U64(16))
	if f.DAX {
		for i := 0; i < nExt; i++ {
			if c, ok := d.Cap(DAXReadSlot(i)); ok {
				f.daxRd = append(f.daxRd, c)
			} else {
				f.daxRd = append(f.daxRd, proc.Cap{})
			}
			if c, ok := d.Cap(DAXWriteSlot(i)); ok {
				f.daxWr = append(f.daxWr, c)
			} else {
				f.daxWr = append(f.daxWr, proc.Cap{})
			}
		}
	} else {
		f.fsRead, _ = d.Cap(SlotFSRead)
		f.fsWrite, _ = d.Cap(SlotFSWrite)
		f.fsReadD, _ = d.Cap(SlotFSReadDirect)
		f.fsWriteD, _ = d.Cap(SlotFSWriteDirect)
	}
	return f, nil
}

// DAXLease returns the raw block-device lease for extent i (write
// selects the write lease). Applications use this to compose the
// storage stack with other services — e.g. pointing a block read at
// GPU memory with a kernel invocation as continuation (Figure 2).
func (f *File) DAXLease(i int, write bool) (proc.Cap, bool) {
	leases := f.daxRd
	if write {
		leases = f.daxWr
	}
	if i < 0 || i >= len(leases) || !leases[i].Valid() {
		return proc.Cap{}, false
	}
	return leases[i], true
}

// DirectWriteReq returns the file's direct-write Request (FS-mode
// opens with write access), for composing the file as the sink of
// another service's output (Figure 2's d edge).
func (f *File) DirectWriteReq() (proc.Cap, bool) {
	return f.fsWriteD, f.fsWriteD.Valid()
}

// ReadAt reads n bytes at offset into mem (a Memory capability of
// exactly n bytes).
func (f *File) ReadAt(t *sim.Task, off, n uint64, mem proc.Cap) error {
	return f.io(t, off, n, mem, false)
}

// WriteAt writes mem (exactly n bytes) at offset.
func (f *File) WriteAt(t *sim.Task, off, n uint64, mem proc.Cap) error {
	return f.io(t, off, n, mem, true)
}

func (f *File) io(t *sim.Task, off, n uint64, mem proc.Cap, isWrite bool) error {
	if f.p == nil {
		return ErrClosed
	}
	if f.DAX {
		return f.daxIO(t, off, n, mem, isWrite)
	}
	req := f.fsRead
	if isWrite {
		req = f.fsWrite
	}
	if !req.Valid() {
		return fmt.Errorf("%w: not opened for this access", ErrFS)
	}
	d, err := f.p.Call(t, req,
		[]wire.ImmArg{proc.U64Arg(FSImmOff, off), proc.U64Arg(FSImmLen, n)},
		[]proc.Arg{{Slot: SlotData, Cap: mem}}, SlotCont)
	if err != nil {
		return err
	}
	return fsErr(d.U64(0))
}

// daxIO talks straight to the block device, extent by extent (the
// composition the FS enabled by delegating its block leases).
func (f *File) daxIO(t *sim.Task, off, n uint64, mem proc.Cap, isWrite bool) error {
	if n > f.Size || off > f.Size-n {
		return fsErr(StatusBounds)
	}
	done := uint64(0)
	for done < n {
		cur := off + done
		ei := int(cur / f.extSize)
		eo := cur % f.extSize
		cn := f.extSize - eo
		if cn > n-done {
			cn = n - done
		}
		leases := f.daxRd
		if isWrite {
			leases = f.daxWr
		}
		if ei >= len(leases) || !leases[ei].Valid() {
			return fmt.Errorf("%w: no DAX lease for extent %d", ErrFS, ei)
		}
		view := mem
		if cn != n {
			var err error
			view, err = f.p.MemoryDiminish(t, mem, done, cn, 0)
			if err != nil {
				return err
			}
		}
		d, err := f.p.Call(t, leases[ei],
			[]wire.ImmArg{proc.U64Arg(nvme.ImmOff, eo), proc.U64Arg(nvme.ImmLen, cn)},
			[]proc.Arg{{Slot: nvme.SlotData, Cap: view}}, nvme.SlotCont)
		var st uint64
		if err == nil {
			st = d.U64(0) // the reply is borrowed: read it before Drop blocks
		}
		if view.ID() != mem.ID() {
			f.p.Drop(t, view)
		}
		if err != nil {
			return err
		}
		if st != 0 {
			return fsErr(StatusIOErr)
		}
		done += cn
	}
	return nil
}

// Close closes the handle via the service's Close Request (obtained on
// demand), revoking DAX leases. openReq is the service's Open... the
// Close Request is derived from the same service; for simplicity the
// client sends TagClose through the Open capability's provider by
// deriving it — the FS exposes Close via the same root. See
// Service.CloseReq.
func (f *File) Close(t *sim.Task, closeReq proc.Cap) error {
	if f.p == nil {
		return ErrClosed
	}
	d, err := f.p.Call(t, closeReq, []wire.ImmArg{proc.U64Arg(8, f.Handle)}, nil, SlotCont)
	if err != nil {
		return err
	}
	f.p = nil
	return fsErr(d.U64(0))
}
