package gpu

import (
	"encoding/binary"
	"fmt"

	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// The GPU adaptor's RPC interface (§5). An application obtains the
// context-init Request, whose reply hands it per-context alloc/load
// Requests; loading a kernel hands it that kernel's invocation
// Request. All of these can be delegated and refined like any Request.
const (
	// TagCtxInit creates a GPU context.
	// caps: SlotCont = reply. Reply caps: SlotAlloc, SlotLoad,
	// SlotFree, SlotCleanup.
	TagCtxInit uint64 = 0x20
	// TagAlloc allocates GPU memory.
	// imm[8:16) = size; caps: SlotCont. Reply: imm[0:8) = status,
	// imm[8:16) = device address; caps: SlotBuf = Memory capability.
	TagAlloc uint64 = 0x21
	// TagLoad loads a kernel.
	// imm[8:16) = name length, [16:...) = name bytes; caps: SlotCont.
	// Reply: imm[0:8) = status; caps: SlotKernel = invocation Request.
	TagLoad uint64 = 0x22
	// TagInvoke invokes a loaded kernel.
	// imm[8:16) = kernel-name length and [16:16+len) = name, preset at
	// load time and immutable; uint64 kernel arguments follow at the
	// next 8-byte boundary (ArgOffset) and are forwarded verbatim;
	// caps: SlotSuccess and SlotError continuations (§5: "two Request
	// arguments used to signal success/error"). The chosen
	// continuation receives imm[0:8) = kernel status. The arguments are
	// untrusted immediates: a kernel sees GPU memory only up to the end
	// of the highest buffer TagAlloc has handed out, so an address past
	// that mark is out of its bounds even inside the device's memory
	// size, as an unallocated address faults on a real GPU, and the
	// invocation takes SlotError with a non-OK status.
	TagInvoke uint64 = 0x23
	// TagFree releases GPU memory. imm[8:16) = device address.
	TagFree uint64 = 0x24
	// TagCleanup destroys the context and frees its resources.
	TagCleanup uint64 = 0x25
)

// Argument slots of the GPU interface.
const (
	SlotCont    uint16 = 0 // reply continuation of management RPCs
	SlotSuccess uint16 = 0 // success continuation of TagInvoke
	SlotError   uint16 = 1 // error continuation of TagInvoke

	// Reply slots.
	SlotAlloc   uint16 = 0
	SlotLoad    uint16 = 1
	SlotFree    uint16 = 2
	SlotCleanup uint16 = 3
	SlotBuf     uint16 = 0
	SlotKernel  uint16 = 0
)

// GPU adaptor status codes.
const (
	StatusOK       uint64 = 0
	StatusNoMem    uint64 = 1
	StatusNoKernel uint64 = 2
	StatusBadArg   uint64 = 3
	StatusAdaptErr uint64 = 4
)

// Adaptor exposes one GPU as FractOS Requests. Its arena is the GPU's
// memory: Memory capabilities handed to clients point straight into
// it, so remote reads/writes model GPUDirect RDMA.
type Adaptor struct {
	P   *proc.Process
	dev *Device

	ctxBufs map[uint64][]uint64 // context → device addresses
	nextCtx uint64
	args    []uint64 // an invocation's arguments, decoded for submit

	// CtxInit is the adaptor's root Request; grant it to applications.
	CtxInit proc.Cap
}

// NewAdaptor attaches a GPU adaptor Process on the given node.
func NewAdaptor(cl *core.Cluster, node int, name string, dev *Device) *Adaptor {
	return &Adaptor{
		P:       proc.Attach(cl, node, name, dev.MemSize()),
		dev:     dev,
		ctxBufs: make(map[uint64][]uint64),
	}
}

// Start registers the context-init Request and starts serving. A kernel
// invocation is served in kernel context, queued at the device; the
// management RPCs, which make syscalls, each run in a task of their own.
// A long kernel stalls neither the adaptor nor the other clients
// (Figure 9 right).
func (a *Adaptor) Start(t *sim.Task) error {
	ci, err := a.P.RequestCreate(t, TagCtxInit, nil, nil)
	if err != nil {
		return fmt.Errorf("gpu adaptor: ctx-init request: %w", err)
	}
	a.CtxInit = ci
	manage := a.P.Tasks("gpu-adaptor", 0, a.handle)
	a.P.Handle(func(d *proc.Delivery) {
		if d.Tag != TagInvoke {
			manage(d)
			return
		}
		a.invokeKernel(d)
	})
	return nil
}

func (a *Adaptor) handle(t *sim.Task, d *proc.Delivery) {
	defer d.Release()
	switch d.Tag {
	case TagCtxInit:
		// The context exists once all four of its Requests do: a refused
		// request_create (a capability quota, say) leaves nothing behind.
		a.nextCtx++
		ctx := a.nextCtx
		var reqs [4]proc.Cap
		for i, tag := range [4]uint64{TagAlloc, TagLoad, TagFree, TagCleanup} {
			r, err := a.P.RequestCreate(t, tag, []wire.ImmArg{proc.U64Arg(0, ctx)}, nil)
			if err != nil {
				for _, made := range reqs[:i] {
					_ = a.P.Drop(t, made) // a refused drop leaves the entry to the Process's teardown
				}
				if a.nextCtx == ctx {
					a.nextCtx--
				}
				d.ReplyStatus(SlotCont, StatusAdaptErr)
				return
			}
			reqs[i] = r
		}
		a.ctxBufs[ctx] = nil
		d.Reply(SlotCont, nil, []proc.Arg{
			{Slot: SlotAlloc, Cap: reqs[0]}, {Slot: SlotLoad, Cap: reqs[1]},
			{Slot: SlotFree, Cap: reqs[2]}, {Slot: SlotCleanup, Cap: reqs[3]},
		})

	case TagAlloc:
		ctx := d.U64(0)
		size := d.U64(8)
		if _, ok := a.ctxBufs[ctx]; !ok || size == 0 {
			d.ReplyStatus(SlotCont, StatusBadArg)
			return
		}
		off, err := a.P.Alloc(int(size))
		if err != nil {
			d.ReplyStatus(SlotCont, StatusNoMem)
			return
		}
		buf, err := a.P.MemoryCreate(t, uint64(off), size, cap.MemRights)
		if err != nil {
			a.P.Free(off)
			d.ReplyStatus(SlotCont, StatusAdaptErr)
			return
		}
		a.ctxBufs[ctx] = append(a.ctxBufs[ctx], uint64(off))
		d.Reply(SlotCont, []wire.ImmArg{proc.U64Arg(8, uint64(off))}, []proc.Arg{{Slot: SlotBuf, Cap: buf}})

	case TagLoad:
		name, ok := d.Name()
		if !ok {
			d.ReplyStatus(SlotCont, StatusBadArg)
			return
		}
		if a.dev.kernels[name] == nil {
			d.ReplyStatus(SlotCont, StatusNoKernel)
			return
		}
		// The invocation Request presets the kernel name; clients can
		// only add arguments and continuations — the kernel itself
		// stays fixed (§5).
		inv, err := a.P.RequestCreate(t, TagInvoke,
			[]wire.ImmArg{proc.U64Arg(8, uint64(len(name))), proc.BytesArg(16, []byte(name))}, nil)
		if err != nil {
			d.ReplyStatus(SlotCont, StatusAdaptErr)
			return
		}
		d.Reply(SlotCont, nil, []proc.Arg{{Slot: SlotKernel, Cap: inv}})

	case TagFree:
		ctx := d.U64(0)
		addr := d.U64(8)
		bufs := a.ctxBufs[ctx]
		for i, b := range bufs {
			if b == addr {
				a.ctxBufs[ctx] = append(bufs[:i], bufs[i+1:]...)
				a.P.Free(int(addr))
				break
			}
		}
		d.Reply(SlotCont, nil, nil)

	case TagCleanup:
		ctx := d.U64(0)
		for _, b := range a.ctxBufs[ctx] {
			a.P.Free(int(b))
		}
		delete(a.ctxBufs, ctx)
		d.Reply(SlotCont, nil, nil)
	}
}

// invokeKernel queues d's kernel at the device, whose job answers it:
// the adaptor invokes whatever continuation it was handed, verbatim,
// giving the application-agnostic decentralized control flow of §2.2.
func (a *Adaptor) invokeKernel(d *proc.Delivery) {
	// When the kernel Request is chained as another service's
	// continuation (e.g. a storage read writing into GPU memory, Figure
	// 2's b→c edge), a failed producer means the kernel's inputs never
	// arrived: propagate instead of computing on garbage.
	if d.Upstream(SlotError) {
		d.Finish()
		return
	}
	name, ok := d.Name()
	kn := a.dev.kernels[name]
	switch {
	case !ok:
		answer(d, StatusBadArg)
	case kn == nil:
		answer(d, StatusNoKernel)
	default:
		a.args = kernelArgs(a.args[:0], d.Imms, 16+len(name))
		a.dev.submit(a, d, kn, a.args)
	}
}

// Memory implements Runner: a kernel sees the adaptor's memory up to the
// end of the highest buffer allocated.
func (a *Adaptor) Memory() []byte { return a.P.ArenaRange(0, a.P.Allocated()) }

// Ran implements Runner: the kernel's status answers its invocation.
func (a *Adaptor) Ran(inv *proc.Delivery, st uint64) { answer(inv, st) }

// answer ends a kernel invocation through its error continuation, or
// its success one.
func answer(d *proc.Delivery, st uint64) {
	slot := SlotSuccess
	if st != StatusOK {
		slot = SlotError
	}
	d.ReplyStatus(slot, st)
	d.Finish()
}

// kernelArgs appends to args the uint64 arguments following the
// kernel-name header, rounding the start up to an 8-byte boundary.
func kernelArgs(args []uint64, imms []byte, from int) []uint64 {
	for at := (from + 7) &^ 7; at+8 <= len(imms); at += 8 {
		args = append(args, binary.LittleEndian.Uint64(imms[at:]))
	}
	return args
}

// ArgOffset returns the immediate offset where invocation argument i
// must be written (after the preset kernel-name header).
func ArgOffset(nameLen, i int) int {
	return ((16 + nameLen + 7) &^ 7) + 8*i
}
