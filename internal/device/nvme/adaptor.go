package nvme

import (
	"fmt"

	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// The block-device adaptor's RPC interface, as Request tags and
// argument conventions. Adaptors are ordinary untrusted Processes that
// translate Requests into device operations (§3.1).
const (
	// TagVolCreate allocates a logical volume.
	// imm[8:16) = size in bytes; caps: SlotCont = reply continuation.
	// The reply carries imm[8:16) = volume id and caps SlotVolRead /
	// SlotVolWrite = this volume's read/write Requests.
	TagVolCreate uint64 = 0x10
	// TagVolRead reads from a volume.
	// imm[8:16) = volume id (preset by the adaptor), [16:24) = offset,
	// [24:32) = length; caps: SlotData = destination Memory,
	// SlotCont = continuation.
	TagVolRead uint64 = 0x11
	// TagVolWrite writes to a volume; SlotData is the source Memory.
	TagVolWrite uint64 = 0x12
)

// Immediate layout of every block Request. Offset [0,8) is reserved
// for the upstream-status convention so block Requests can themselves
// be chained as continuations of other services (§3.4 composition): a
// non-zero value there means the upstream producer failed and the
// operation must not run.
const (
	ImmStatus = 0
	ImmVol    = 8 // volume id (TagVolRead/Write) or size (TagVolCreate)
	ImmOff    = 16
	ImmLen    = 24
)

// Argument slots of the block-device interface.
const (
	// SlotData carries the data Memory capability.
	SlotData uint16 = 0
	// SlotCont carries the continuation Request, invoked with
	// imm[0:8) = status (0 = success) when the operation completes.
	SlotCont uint16 = 1
	// SlotVolRead / SlotVolWrite carry the per-volume Requests in a
	// TagVolCreate reply.
	SlotVolRead  uint16 = 0
	SlotVolWrite uint16 = 1
)

// Block-operation status codes delivered to continuations.
const (
	StatusOK      uint64 = 0
	StatusBadVol  uint64 = 1
	StatusBounds  uint64 = 2
	StatusTooBig  uint64 = 3
	StatusCopyErr uint64 = 4
	StatusDevErr  uint64 = 5
)

// MaxIO is the largest single block operation (Figure 11 uses 1 MiB).
const MaxIO = 1 << 20

// The adaptor serves queueDepth operations at once, staging through
// stagingBufs buffers of MaxIO bytes.
const (
	queueDepth  = 8
	stagingBufs = 8
)

type volume struct {
	off  int64
	size int64
}

// Adaptor exposes one NVMe device as FractOS Requests. It runs on the
// host CPU co-located with the device, like the paper's prototype.
type Adaptor struct {
	P   *proc.Process
	dev *Device

	vols    map[uint64]volume
	nextVol uint64
	devFree int64 // bump allocator over device space

	stageSem *sim.Semaphore
	stages   []stageBuf

	// VolCreate is the adaptor's root Request; grant it to the storage
	// stack (the FS service) at deployment time.
	VolCreate proc.Cap
}

type stageBuf struct {
	off int
	cap proc.Cap // Memory capability covering the whole buffer
}

// NewAdaptor attaches a block-device adaptor Process on the given
// node.
func NewAdaptor(cl *core.Cluster, node int, name string, dev *Device) *Adaptor {
	return &Adaptor{
		P:        proc.Attach(cl, node, name, stagingBufs*MaxIO),
		dev:      dev,
		vols:     make(map[uint64]volume),
		stageSem: sim.NewSemaphore(stagingBufs),
	}
}

// Start registers the adaptor's Requests and starts serving them. Must
// run in task context before clients are wired up.
func (a *Adaptor) Start(t *sim.Task) error {
	for i := 0; i < stagingBufs; i++ {
		off := i * MaxIO
		c, err := a.P.MemoryCreate(t, uint64(off), MaxIO, cap.MemRights)
		if err != nil {
			return fmt.Errorf("nvme adaptor: staging memory: %w", err)
		}
		a.stages = append(a.stages, stageBuf{off: off, cap: c})
	}
	vc, err := a.P.RequestCreate(t, TagVolCreate, nil, nil)
	if err != nil {
		return fmt.Errorf("nvme adaptor: volcreate request: %w", err)
	}
	a.VolCreate = vc
	a.P.Serve("nvme-adaptor", queueDepth, a.handle)
	return nil
}

func (a *Adaptor) handle(t *sim.Task, d *proc.Delivery) {
	defer d.Release()
	switch d.Tag {
	case TagVolCreate:
		a.handleVolCreate(t, d)
	case TagVolRead:
		a.handleIO(t, d, false)
	case TagVolWrite:
		a.handleIO(t, d, true)
	}
}

func (a *Adaptor) handleVolCreate(t *sim.Task, d *proc.Delivery) {
	size := int64(d.U64(ImmVol))
	if _, ok := d.Cap(SlotCont); !ok {
		return
	}
	if size <= 0 || size > a.dev.Capacity()-a.devFree {
		d.ReplyStatus(SlotCont, StatusBounds)
		return
	}
	a.nextVol++
	id := a.nextVol
	a.vols[id] = volume{off: a.devFree, size: size}
	a.devFree += size

	rd, err1 := a.P.RequestCreate(t, TagVolRead, []wire.ImmArg{proc.U64Arg(ImmVol, id)}, nil)
	wr, err2 := a.P.RequestCreate(t, TagVolWrite, []wire.ImmArg{proc.U64Arg(ImmVol, id)}, nil)
	if err1 != nil || err2 != nil {
		d.ReplyStatus(SlotCont, StatusDevErr)
		return
	}
	d.Reply(SlotCont,
		[]wire.ImmArg{proc.U64Arg(ImmVol, id)},
		[]proc.Arg{{Slot: SlotVolRead, Cap: rd}, {Slot: SlotVolWrite, Cap: wr}})
}

// handleIO serves a volume read or write: stage through a local
// buffer, moving the bytes between the device and the caller-provided
// Memory capability with memory_copy — the adaptor never needs to know
// where that Memory lives (§2.2's interface encapsulation).
func (a *Adaptor) handleIO(t *sim.Task, d *proc.Delivery, isWrite bool) {
	// A chained producer that failed reports its status in imm[0,8):
	// propagate it instead of touching the device.
	if d.Upstream(SlotCont) {
		return
	}
	vol, ok := a.vols[d.U64(ImmVol)]
	if !ok {
		d.ReplyStatus(SlotCont, StatusBadVol)
		return
	}
	off, n := int64(d.U64(ImmOff)), int64(d.U64(ImmLen))
	if n <= 0 || off < 0 || n > vol.size || off > vol.size-n {
		d.ReplyStatus(SlotCont, StatusBounds)
		return
	}
	if n > MaxIO {
		d.ReplyStatus(SlotCont, StatusTooBig)
		return
	}
	data, ok := d.Cap(SlotData)
	if !ok || data.Size() < uint64(n) {
		d.ReplyStatus(SlotCont, StatusBounds)
		return
	}

	a.stageSem.Acquire(t)
	sb := a.stages[len(a.stages)-1]
	a.stages = a.stages[:len(a.stages)-1]
	defer func() {
		a.stages = append(a.stages, sb)
		a.stageSem.Release()
	}()

	buf := a.P.Arena()[sb.off : sb.off+int(n)]

	if isWrite {
		// Pull the caller's bytes, then commit to flash.
		if err := a.P.MemoryCopyRange(t, data, 0, sb.cap, 0, uint64(n)); err != nil {
			d.ReplyStatus(SlotCont, StatusCopyErr)
			return
		}
		if err := a.dev.Write(t, vol.off+off, buf); err != nil {
			d.ReplyStatus(SlotCont, StatusDevErr)
			return
		}
	} else {
		if err := a.dev.Read(t, vol.off+off, buf); err != nil {
			d.ReplyStatus(SlotCont, StatusDevErr)
			return
		}
		if err := a.P.MemoryCopyRange(t, sb.cap, 0, data, 0, uint64(n)); err != nil {
			d.ReplyStatus(SlotCont, StatusCopyErr)
			return
		}
	}
	d.ReplyStatus(SlotCont, StatusOK)
}
