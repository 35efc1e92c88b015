package fs

import (
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// OpenSizeOff returns the immediate offset of the optional size hint
// after a name of the given length (8-byte aligned).
func OpenSizeOff(nameLen int) int { return (16 + nameLen + 7) &^ 7 }

// handleOpen opens or creates a file and replies with either
// FS-mediated Requests or DAX leases.
func (s *Service) handleOpen(t *sim.Task, d *proc.Delivery) {
	mode := d.U64(0)
	name, ok := d.Name()
	if !ok || mode&(OpenRead|OpenWrite) == 0 {
		d.ReplyStatus(SlotCont, StatusBadArg)
		return
	}

	// Creating a file blocks on volume allocation, so a concurrent
	// open of the same name could otherwise race a second create.
	// Wait for any in-flight creation of this name to settle first.
	for s.creating[name] {
		t.Sleep(10 * 1000)
	}
	f, exists := s.files[name]
	if !exists {
		if mode&OpenCreate == 0 {
			d.ReplyStatus(SlotCont, StatusNoFile)
			return
		}
		size := d.U64(OpenSizeOff(len(name)))
		if size == 0 {
			size = ExtentSize
		}
		s.creating[name] = true
		var st uint64
		f, st = s.createFile(t, name, size)
		delete(s.creating, name)
		if st != StatusOK {
			d.ReplyStatus(SlotCont, st)
			return
		}
	}

	s.nextHandle++
	h := &openHandle{fileID: f.id}
	s.handles[s.nextHandle] = h

	imms := []wire.ImmArg{
		proc.U64Arg(8, f.size),
		proc.U64Arg(16, uint64(len(f.extents))),
		proc.U64Arg(24, ExtentSize),
		proc.U64Arg(32, s.nextHandle),
	}

	if mode&OpenDAX != 0 {
		args, st := s.daxLeases(t, f, h, mode)
		if st != StatusOK {
			d.ReplyStatus(SlotCont, st)
			return
		}
		d.Reply(SlotCont, imms, args)
		return
	}

	// FS mode: hand out per-file mediated Requests.
	if st := s.ensureFileReqs(t, f); st != StatusOK {
		d.ReplyStatus(SlotCont, st)
		return
	}
	var args []proc.Arg
	if mode&OpenRead != 0 {
		args = append(args,
			proc.Arg{Slot: SlotFSRead, Cap: f.rdReq},
			proc.Arg{Slot: SlotFSReadDirect, Cap: f.rdReqD})
	}
	if mode&OpenWrite != 0 {
		args = append(args,
			proc.Arg{Slot: SlotFSWrite, Cap: f.wrReq},
			proc.Arg{Slot: SlotFSWriteDirect, Cap: f.wrReqD})
	}
	d.Reply(SlotCont, imms, args)
}

// daxLeases wraps each extent's block Requests in freshly derived
// revocation-tree children ("leases") according to the open mode, so
// that closing the file revokes exactly this client's direct access.
// Only backends exposing DAXVolume (the FractOS block adaptor) support
// this; NVMe-oF and other baselines cannot delegate block access.
func (s *Service) daxLeases(t *sim.Task, f *file, h *openHandle, mode uint64) ([]proc.Arg, uint64) {
	var args []proc.Arg
	for i, ext := range f.extents {
		dv, ok := ext.vol.(DAXVolume)
		if !ok {
			return nil, StatusBadMode
		}
		if mode&OpenRead != 0 {
			lease, err := dv.LeaseRead(t)
			if err != nil {
				return nil, StatusIOErr
			}
			h.leases = append(h.leases, lease)
			args = append(args, proc.Arg{Slot: DAXReadSlot(i), Cap: lease})
		}
		if mode&OpenWrite != 0 {
			lease, err := dv.LeaseWrite(t)
			if err != nil {
				return nil, StatusIOErr
			}
			h.leases = append(h.leases, lease)
			args = append(args, proc.Arg{Slot: DAXWriteSlot(i), Cap: lease})
		}
	}
	return args, StatusOK
}

func (s *Service) handleClose(t *sim.Task, d *proc.Delivery) {
	h, ok := s.handles[d.U64(8)]
	if !ok {
		d.ReplyStatus(SlotCont, StatusNoHandle)
		return
	}
	delete(s.handles, d.U64(8))
	for _, lease := range h.leases {
		if err := s.P.Revoke(t, lease); err != nil {
			d.ReplyStatus(SlotCont, StatusIOErr)
			return
		}
	}
	d.ReplyStatus(SlotCont, StatusOK)
}

// createFile allocates the file's extents as block-device volumes.
func (s *Service) createFile(t *sim.Task, name string, size uint64) (*file, uint64) {
	nExt := int((size + ExtentSize - 1) / ExtentSize)
	if nExt > MaxExtents {
		return nil, StatusNoSpace
	}
	s.nextFile++
	f := &file{id: s.nextFile, name: name, size: size}
	for i := 0; i < nExt; i++ {
		vol, err := s.backend.CreateVolume(t, ExtentSize)
		if err != nil {
			return nil, StatusNoSpace
		}
		f.extents = append(f.extents, extent{vol: vol})
	}
	s.files[name] = f
	s.byID[f.id] = f
	return f, StatusOK
}

// ensureFileReqs lazily creates the FS-mediated and direct per-file
// Requests.
func (s *Service) ensureFileReqs(t *sim.Task, f *file) uint64 {
	if f.rdReq.Valid() {
		return StatusOK
	}
	fileArg := []wire.ImmArg{proc.U64Arg(FSImmFile, f.id)}
	rd, err1 := s.P.RequestCreate(t, TagRead, fileArg, nil)
	wr, err2 := s.P.RequestCreate(t, TagWrite, fileArg, nil)
	rdD, err3 := s.P.RequestCreate(t, TagReadDirect, fileArg, nil)
	wrD, err4 := s.P.RequestCreate(t, TagWriteDirect, fileArg, nil)
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
		return StatusIOErr
	}
	f.rdReq, f.wrReq, f.rdReqD, f.wrReqD = rd, wr, rdD, wrD
	return StatusOK
}
