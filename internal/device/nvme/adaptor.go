package nvme

import (
	"fmt"
	"slices"

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

// The adaptor stages every read and write through one of stagingBufs
// buffers of MaxIO bytes, the lowest free one first, so buffer i
// materializes only once i+1 operations hold one at the same time.
// Operations waiting for one take them in arrival order.
const stagingBufs = 8

type volume struct {
	off  int64
	size int64
}

// Adaptor exposes one NVMe device as FractOS Requests. It runs on the
// host CPU co-located with the device, like the paper's prototype.
type Adaptor struct {
	P   *proc.Process
	dev *Device

	vols     map[uint64]volume
	nextVol  uint64
	devFree  int64 // bump allocator over device space
	reserved int64 // space of the volumes whose Requests are being created

	stages  []stageBuf // free staging buffers, the lowest offset on top
	staging []*ioOp    // operations waiting for one, in arrival order
	ios     sim.FreeList[ioOp]

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
		P:    proc.Attach(cl, node, name, stagingBufs*MaxIO),
		dev:  dev,
		vols: make(map[uint64]volume),
	}
}

// Start registers the adaptor's Requests and starts serving them, reads
// and writes in kernel context (ioOp) and a VolCreate, which makes
// syscalls, in a task. Must run before clients are wired up.
func (a *Adaptor) Start(t *sim.Task) error {
	for i := 0; i < stagingBufs; i++ {
		off := i * MaxIO
		c, err := a.P.MemoryCreate(t, uint64(off), MaxIO, cap.MemRights)
		if err != nil {
			return fmt.Errorf("nvme adaptor: staging memory: %w", err)
		}
		a.stages = append(a.stages, stageBuf{off: off, cap: c})
	}
	slices.Reverse(a.stages)
	vc, err := a.P.RequestCreate(t, TagVolCreate, nil, nil)
	if err != nil {
		return fmt.Errorf("nvme adaptor: volcreate request: %w", err)
	}
	a.VolCreate = vc
	volCreate := a.P.Tasks("nvme-adaptor", 0, a.handleVolCreate)
	a.P.Handle(func(d *proc.Delivery) {
		if d.Tag == TagVolCreate {
			volCreate(d)
			return
		}
		a.io(d, d.Tag == TagVolWrite)
	})
	return nil
}

// handleVolCreate creates a volume once both its Requests exist: until
// then its space is only reserved, and a refused request_create (a
// capability quota, say) leaves nothing behind.
func (a *Adaptor) handleVolCreate(t *sim.Task, d *proc.Delivery) {
	defer d.Release()
	size := int64(d.U64(ImmVol))
	if _, ok := d.Cap(SlotCont); !ok {
		return
	}
	if size <= 0 || size > a.dev.Capacity()-a.devFree-a.reserved {
		d.ReplyStatus(SlotCont, StatusBounds)
		return
	}
	a.reserved += size
	a.nextVol++
	id := a.nextVol
	rd, err := a.P.RequestCreate(t, TagVolRead, []wire.ImmArg{proc.U64Arg(ImmVol, id)}, nil)
	var wr proc.Cap
	if err == nil {
		if wr, err = a.P.RequestCreate(t, TagVolWrite, []wire.ImmArg{proc.U64Arg(ImmVol, id)}, nil); err != nil {
			_ = a.P.Drop(t, rd) // a refused drop leaves the entry to the Process's teardown
		}
	}
	a.reserved -= size
	if err != nil {
		if a.nextVol == id {
			a.nextVol--
		}
		d.ReplyStatus(SlotCont, StatusDevErr)
		return
	}
	a.vols[id] = volume{off: a.devFree, size: size}
	a.devFree += size
	d.Reply(SlotCont,
		[]wire.ImmArg{proc.U64Arg(ImmVol, id)},
		[]proc.Arg{{Slot: SlotVolRead, Cap: rd}, {Slot: SlotVolWrite, Cap: wr}})
}

// io serves a volume read or write, staged through a local buffer: the
// bytes move to or from the caller's Memory by memory_copy, wherever it
// lives (§2.2's interface encapsulation). A request that passes its
// checks is an ioOp.
func (a *Adaptor) io(d *proc.Delivery, isWrite bool) {
	// A chained producer that failed reports its status in imm[0,8):
	// propagate it instead of touching the device.
	if d.Upstream(SlotCont) {
		d.Finish()
		return
	}
	vol, ok := a.vols[d.U64(ImmVol)]
	off, n := int64(d.U64(ImmOff)), int64(d.U64(ImmLen))
	data, hasData := d.Cap(SlotData)
	st := StatusOK
	switch {
	case !ok:
		st = StatusBadVol
	case n <= 0 || off < 0 || n > vol.size || off > vol.size-n:
		st = StatusBounds
	case n > MaxIO:
		st = StatusTooBig
	case !hasData || data.Size() < uint64(n):
		st = StatusBounds
	}
	if st != StatusOK {
		d.ReplyStatus(SlotCont, st)
		d.Finish()
		return
	}
	op := a.getIO()
	op.d, op.isWrite, op.off, op.n, op.data = d, isWrite, vol.off+off, n, data
	op.start()
}

// ioOp is a volume read or write in progress, a pooled record stepped by
// the events it waits for. A read goes staging buffer → device (Fire) →
// memory_copy out (Completed) → reply, a write staging buffer →
// memory_copy in → device → reply; a failed step answers its status.
type ioOp struct {
	a       *Adaptor
	d       *proc.Delivery
	isWrite bool
	off, n  int64    // on the device
	data    proc.Cap // the caller's Memory
	sb      stageBuf
}

//fractos:pool-acquire nvmeio
func (a *Adaptor) getIO() *ioOp {
	op := a.ios.Get()
	op.a = a
	return op
}

//fractos:pool-release nvmeio
func (a *Adaptor) putIO(op *ioOp) {
	*op = ioOp{}
	a.ios.Put(op)
}

// start gives the op a staging buffer or, with none free, queues it.
//
//fractos:pool-handoff nvmeio
func (op *ioOp) start() {
	a := op.a
	if len(a.stages) == 0 {
		a.staging = append(a.staging, op)
		return
	}
	op.sb = a.stages[len(a.stages)-1]
	a.stages = a.stages[:len(a.stages)-1]
	if op.isWrite {
		op.copy(op.data, op.sb.cap)
	} else {
		op.device()
	}
}

// copy posts the op's memory_copy between its staging buffer and the
// caller's Memory.
func (op *ioOp) copy(src, dst proc.Cap) {
	if err := op.a.P.MemoryCopyThen(src, 0, dst, 0, uint64(op.n), op); err != nil {
		op.end(StatusCopyErr)
	}
}

// device books the access and waits for its time.
func (op *ioOp) device() {
	lat, err := op.a.dev.book(op.off, int(op.n), op.isWrite)
	if err != nil {
		op.end(StatusDevErr)
		return
	}
	op.a.P.Kernel().AfterCall(lat, op)
}

// Fire implements sim.Callback: the device's time is over. A write is
// done; a read's bytes are copied out to the caller.
func (op *ioOp) Fire() {
	op.a.dev.deliver(op.off, op.a.P.ArenaRange(op.sb.off, int(op.n)), op.isWrite)
	if op.isWrite {
		op.end(StatusOK)
	} else {
		op.copy(op.sb.cap, op.data)
	}
}

// Completed implements proc.Waiter: the op's memory_copy is over. A
// write's goes on to the device, a read is done.
func (op *ioOp) Completed(m *wire.Completion) {
	switch {
	case m.Status != wire.StatusOK:
		op.end(StatusCopyErr)
	case op.isWrite:
		op.device()
	default:
		op.end(StatusOK)
	}
}

// end answers the request with st and frees the op; its staging buffer
// goes to the first operation waiting.
func (op *ioOp) end(st uint64) {
	a, d, sb := op.a, op.d, op.sb
	a.putIO(op)
	d.ReplyStatus(SlotCont, st)
	d.Finish()
	a.stages = append(a.stages, sb)
	if len(a.staging) > 0 {
		next := a.staging[0]
		a.staging = a.staging[:copy(a.staging, a.staging[1:])]
		next.start()
	}
}
