package faceverify

import (
	"fmt"

	"fractos/internal/cap"
	"fractos/internal/fs"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// The ring mode executes Figure 2's green path literally: instead of
// downloading the verdicts, the kernel's success continuation is the
// FS's direct-write Request, so the output SSD pulls them straight
// from GPU memory and notifies the frontend. Each slot owns a fixed
// region of the shared output file, so its write Request can be fully
// preset once and reused.

// outputFileName is the shared verdict file.
const outputFileName = "verdicts.bin"

// ringState is the per-app lazily initialized ring plumbing.
type ringState struct {
	file *fs.File
	// per-slot read-back buffers (cap + arena offset), allocated once.
	readMem map[*slot]proc.Cap
	readOff map[*slot]int
}

// EnableRing prepares the output file and the per-slot preset write
// Requests. Idempotent; must run in task context before RingVerify.
func (a *FractOSApp) EnableRing(t *sim.Task) error {
	if a.ring != nil {
		return nil
	}
	size := uint64(len(a.slots)) * uint64(a.cfg.Batch)
	f, err := fs.OpenFile(t, a.app, a.fsOpen, outputFileName,
		fs.OpenRead|fs.OpenWrite|fs.OpenCreate, size)
	if err != nil {
		return fmt.Errorf("faceverify: output file: %w", err)
	}
	wd, ok := f.DirectWriteReq()
	if !ok {
		return fmt.Errorf("faceverify: no direct-write request")
	}
	r := &ringState{
		file:    f,
		readMem: make(map[*slot]proc.Cap),
		readOff: make(map[*slot]int),
	}
	for i, s := range a.allSlots {
		// Preset: this slot's region of the output file, sourced from
		// this slot's GPU result buffer, notifying this slot's reply
		// Request. Fully static — derived once, reused per request.
		w, err := a.app.Derive(t, wd,
			[]wire.ImmArg{
				proc.U64Arg(fs.FSImmOff, uint64(i*a.cfg.Batch)),
				proc.U64Arg(fs.FSImmLen, uint64(a.cfg.Batch)),
			},
			[]proc.Arg{{Slot: fs.SlotData, Cap: s.gpuOut}, {Slot: fs.SlotCont, Cap: s.reply}})
		if err != nil {
			return fmt.Errorf("faceverify: preset write: %w", err)
		}
		if s.ringKernel, err = a.kernelRequest(t, s, w); err != nil {
			return err
		}
		off, err := a.app.Alloc(a.cfg.Batch)
		if err != nil {
			return fmt.Errorf("faceverify: read-back buffer: %w", err)
		}
		mem, err := a.app.MemoryCreate(t, uint64(off), uint64(a.cfg.Batch), cap.MemRights)
		if err != nil {
			return fmt.Errorf("faceverify: read-back memory: %w", err)
		}
		r.readMem[s] = mem
		r.readOff[s] = off
	}
	a.ring = r
	return nil
}

// RingVerify runs one request through the full Figure 2 ring: probes
// up, then a single invocation whose continuation graph flows
// input SSD → GPU → FS-composed output SSD → frontend. The verdicts
// land in the slot's region of the output file and are read back
// (while the slot is still held, so a concurrent request cannot
// overwrite them) and returned. EnableRing must have been called.
func (a *FractOSApp) RingVerify(t *sim.Task, req *Request) ([]byte, error) {
	if a.ring == nil {
		return nil, fmt.Errorf("faceverify: ring not enabled")
	}
	if req.Batch != a.cfg.Batch {
		return nil, fmt.Errorf("faceverify: request batch %d != configured %d", req.Batch, a.cfg.Batch)
	}
	a.slotSem.Acquire(t)
	s := a.slots[len(a.slots)-1]
	a.slots = a.slots[:len(a.slots)-1]
	defer func() {
		a.slots = append(a.slots, s)
		a.slotSem.Release()
	}()

	file := a.files[req.FileIdx%len(a.files)]
	copy(a.app.Arena()[s.probeOff:s.probeOff+int(a.cfg.probeBytes())], req.Probes)
	if err := a.app.MemoryCopy(t, s.probeMem, s.gpuProbe); err != nil {
		return nil, fmt.Errorf("faceverify: probe upload: %w", err)
	}

	f := a.app.WaitTag(s.replyTag)
	if err := a.storageReadInto(t, file, a.cfg.batchBytes(), s.gpuDB, s.ringKernel); err != nil {
		return nil, err
	}
	d, err := f.Wait(t)
	if err != nil {
		return nil, err
	}
	d.Done()
	if st := d.U64(0); st != 0 {
		return nil, fmt.Errorf("faceverify: ring status %d", st)
	}
	return a.readVerdicts(t, s)
}

// readVerdicts fetches the slot's verdict region from the output file
// into the slot's dedicated read-back buffer.
func (a *FractOSApp) readVerdicts(t *sim.Task, s *slot) ([]byte, error) {
	var fileOff uint64
	for i, sl := range a.allSlots {
		if sl == s {
			fileOff = uint64(i * a.cfg.Batch)
			break
		}
	}
	if err := a.ring.file.ReadAt(t, fileOff, uint64(a.cfg.Batch), a.ring.readMem[s]); err != nil {
		return nil, err
	}
	off := a.ring.readOff[s]
	out := make([]byte, a.cfg.Batch)
	copy(out, a.app.Arena()[off:off+a.cfg.Batch])
	return out, nil
}
