// Package proc is libfractos: the Process-side runtime. A Process —
// user application or device adaptor, FractOS does not distinguish —
// is connected to exactly one Controller through request/response
// queues. All syscalls are posted asynchronously (Table 1) and this
// runtime pairs completions back to callers through futures, giving
// the synchronous-looking API the paper's C++ prototype builds with
// its promise/future library. A blocking call wakes its caller once:
// a single syscall when its completion arrives, and Call — an invocation
// passing a reply Request the Process reuses, or the caller's (CallWith),
// and the reply — when the reply has, the receive path taking the steps
// between (callOp, call.go).
package proc

import (
	"errors"
	"fmt"

	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/fabric"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// ErrDisconnected is returned when the Process's channel to its
// Controller is severed.
var ErrDisconnected = errors.New("proc: controller channel severed")

// ErrForeignCap is returned when a capability handle minted for one
// Process is used through another: cids are Process-local indices, so
// a foreign handle would silently address an unrelated entry.
var ErrForeignCap = errors.New("proc: capability handle belongs to a different process")

// Process is one FractOS Process and its connection to its Controller.
type Process struct {
	k      *sim.Kernel
	net    *fabric.Net
	id     cap.ProcID
	ep     *fabric.Endpoint
	ctrl   *core.Controller
	ctrlEP fabric.EndpointID

	nextToken uint64
	pending   map[uint64]sysWaiter
	strays    int // completions that no syscall waited for
	// futures recycles the completion futures of syscalls: the caller
	// blocks until its completion arrives, so the future is free again
	// the moment the call returns. calls does the same for the records of
	// Calls, and replies holds the reply Requests no Call is using
	// (call.go). deliveries recycles request_receive descriptors: Serve's
	// once served, Calls' replies once spent — spent holds those returned
	// since the last Call started (serve.go, call.go).
	futures    sim.FreeList[sim.Future[wire.Completion]]
	calls      sim.FreeList[callOp]
	replies    sim.FreeList[replyReq]
	deliveries sim.FreeList[Delivery]
	spent      []*Delivery
	// slots is scratch for a syscall's capability-argument list; the
	// message that carries it is encoded before submit returns.
	slots []wire.CapSlot
	// tx holds every message libfractos sends, built in place: Net.Send
	// encodes its argument before it returns and retains nothing, and no
	// caller yields between filling one and posting it.
	tx struct {
		null            wire.Null
		memCreate       wire.MemCreate
		memDiminish     wire.MemDiminish
		memCopy         wire.MemCopy
		reqCreate       wire.ReqCreate
		reqInvoke       wire.ReqInvoke
		capRevtree      wire.CapRevtree
		capRevoke       wire.CapRevoke
		capDrop         wire.CapDrop
		monitorDelegate wire.MonitorDelegate
		monitorReceive  wire.MonitorReceive
		done            wire.DeliverDone
		back            []cap.CapID   // done's list, when a delivery hands its capabilities back
		imms            []wire.ImmArg // a one-shot post's immediates (keepImms)
		immData         []byte        // the bytes of imms, back to back
	}
	// dec decodes what the Controller sends: Deliver is finished with a
	// message — copied out what the application keeps — before it sees
	// the next one.
	dec *wire.Decoder

	nextTag  uint64
	waiters  map[uint64]*callOp // the Calls waiting for a reply, by its tag
	incoming *sim.Chan[*Delivery]
	handler  func(*Delivery) // Handle's: takes what incoming would queue

	// Monitor callbacks may issue syscalls: each runs as a task (cbName).
	nextCB   uint64
	monitors map[uint64]func(*sim.Task)
	cbName   string

	alloc *allocator
	// dead is set once the channel to the Controller is known to be gone
	// — Bye was sent, or a send found it severed: a syscall posted after
	// that fails at once instead of waiting for a completion that the
	// Controller, which drops a failed Process's frames, never sends.
	dead bool
}

// sysWaiter is who a syscall's completion goes to: the future of a
// blocking syscall, the record it is a step of (a Call's, a
// MemoryCopyThen's), or nobody — a timed-out Call's invocation, whose
// completion is discarded.
type sysWaiter struct {
	fut *sim.Future[wire.Completion]
	op  Waiter
}

// Waiter is a record that demux steps, in kernel context, with the
// completion of a syscall it posted, borrowed for the call.
type Waiter interface{ Completed(m *wire.Completion) }

// Cap is a Process-side handle to a capability: a cid plus cached
// metadata. The authoritative state lives with the Controllers.
type Cap struct {
	p      *Process
	id     cap.CapID
	kind   cap.Kind
	rights cap.Rights
	size   uint64
}

// ID returns the capability index (cid).
func (c Cap) ID() cap.CapID { return c.id }

// Rights returns the cached rights.
func (c Cap) Rights() cap.Rights { return c.rights }

// Size returns the cached Memory extent (0 for Requests).
func (c Cap) Size() uint64 { return c.size }

// Valid reports whether the handle refers to a capability at all.
func (c Cap) Valid() bool { return c.p != nil && c.id != cap.NilCap }

// Arg binds a capability to a Request argument slot.
type Arg struct {
	Slot uint16
	Cap  Cap
}

// Attach creates a Process on node `node` of the cluster, managed by
// that node's Controller, with an RDMA arena of arenaSize bytes.
func Attach(cl *core.Cluster, node int, name string, arenaSize int) *Process {
	return AttachTo(cl.K, cl.Net, cl.CtrlFor(node), cl.NewProcID(), name,
		fabric.Location{Node: node, Domain: fabric.Host}, arenaSize)
}

// AttachTo creates a Process managed by an explicit Controller.
func AttachTo(k *sim.Kernel, net *fabric.Net, ctrl *core.Controller, pid cap.ProcID,
	name string, loc fabric.Location, arenaSize int) *Process {
	p := &Process{
		k:        k,
		net:      net,
		id:       pid,
		ctrl:     ctrl,
		ctrlEP:   ctrl.EndpointID(),
		pending:  make(map[uint64]sysWaiter),
		dec:      wire.NewDecoder(),
		waiters:  make(map[uint64]*callOp),
		incoming: sim.NewChan[*Delivery](k, name+".deliveries", 0),
		monitors: make(map[uint64]func(*sim.Task)),
		cbName:   name + ".monitorcb",
		alloc:    newAllocator(arenaSize),
	}
	p.ep = ctrl.AttachProcess(pid, name, loc, arenaSize, p)
	k.Track(name+" callOp", &p.calls)
	k.Track(name+" syscall", (*unanswered)(p))
	return p
}

// unanswered is the Process as the end-of-run audit sees it
// (Kernel.Track): each syscall completes exactly once, so at quiescence
// one still pending — unless its Controller has failed the Process, and
// so sends it nothing — or a completion that no syscall waited for is a
// fault.
type unanswered Process

func (u *unanswered) Lent() int {
	p := (*Process)(u)
	if !p.ctrl.Serves(p.id) {
		return p.strays
	}
	return len(p.pending) + p.strays
}

// ID returns the Process id.
func (p *Process) ID() cap.ProcID { return p.id }

// Arena returns the Process's RDMA-registered memory, all of it
// materialized (fabric.Endpoint.Arena).
func (p *Process) Arena() []byte { return p.ep.Arena() }

// ArenaRange returns a ranged view of the Process's memory, bytes
// [off, off+n), materializing only the prefix that covers them. The view
// is valid until the next access that may grow the arena and is never
// held across an event or a block (fabric.Endpoint.ArenaRange).
func (p *Process) ArenaRange(off, n int) []byte { return p.ep.ArenaRange(off, n) }

// Endpoint returns the Process's fabric endpoint id.
func (p *Process) Endpoint() fabric.EndpointID { return p.ep.ID }

// Kernel returns the simulation kernel.
func (p *Process) Kernel() *sim.Kernel { return p.k }

// Deliver implements fabric.Handler: it demultiplexes traffic from the
// Controller without blocking (unbounded queues, spawned callbacks).
// The message is borrowed from the frame and the Process's Decoder, so
// what leaves here leaves by value: a completion resolves its future
// with a copy, a request_receive descriptor — a pooled record — owns
// its arguments.
func (p *Process) Deliver(f *fabric.Frame) {
	m, err := p.dec.Decode(f.Bytes())
	if err == nil {
		p.demux(m)
	}
	f.Release()
}

// demux routes one message from the Controller: a completion to the
// future of its syscall or the record it steps, a delivery to the Call
// waiting for its tag or else to the Handle handler or the Receive queue,
// a monitor callback to a task of its own.
func (p *Process) demux(m wire.Message) {
	switch m := m.(type) {
	case *wire.Completion:
		w, ok := p.pending[m.Token]
		delete(p.pending, m.Token)
		switch {
		case !ok:
			p.strays++
		case w.op != nil:
			w.op.Completed(m)
		case w.fut != nil:
			w.fut.Set(*m)
		}
	case *wire.Deliver:
		op, ok := p.waiters[m.Tag]
		switch {
		case ok:
			delete(p.waiters, m.Tag)
			op.delivered(p.getDelivery(m))
		case m.Tag&wire.ReplyTag != 0:
			// A reply to a call that is over (callOp.retire: timed out, or
			// its invocation unaccounted for): ack at once so the provider's
			// congestion-window credit is not leaked, and discard it. Caps it
			// delegated are children of the caller's revoked reply Request
			// and die with it.
			p.tx.done = wire.DeliverDone{Seq: m.Seq}
			//fractos:mustuse-ok a failed ack means the Controller tore us down already
			p.net.Send(p.ep.ID, p.ctrlEP, &p.tx.done)
		case p.handler != nil:
			p.handler(p.getDelivery(m))
		default:
			p.incoming.TrySend(p.getDelivery(m))
		}
	case *wire.MonitorCB:
		fn, ok := p.monitors[m.Callback]
		if !ok {
			return
		}
		// A monitor_receive callback fires at most once: its object can
		// only be revoked once, so another MonitorCB for it is a fabric
		// duplicate. A monitor_delegate one stays, for the delegator's
		// count can fall to zero again.
		if m.Kind == wire.MonitorCBReceive {
			delete(p.monitors, m.Callback)
		}
		p.k.Spawn(p.cbName, fn)
	}
}

// checkOwn verifies capability handles belong to this Process.
func (p *Process) checkOwn(caps ...Cap) error {
	for _, c := range caps {
		if c.p != nil && c.p != p {
			return ErrForeignCap
		}
	}
	return nil
}

// checkArgs verifies the handles inside argument lists.
func (p *Process) checkArgs(args []Arg) error {
	for _, a := range args {
		if a.Cap.p != nil && a.Cap.p != p {
			return ErrForeignCap
		}
	}
	return nil
}

// send posts m, a syscall carrying token, whose completion goes to w.
// It reports false, with nothing registered, when the channel to the
// Controller is gone.
func (p *Process) send(w sysWaiter, token uint64, m wire.Message) bool {
	if p.dead {
		return false
	}
	p.pending[token] = w
	if !p.net.Send(p.ep.ID, p.ctrlEP, m) {
		delete(p.pending, token)
		return false
	}
	return true
}

// syscall posts the syscall build describes under a fresh token and
// blocks until it completes, on a recycled future.
func (p *Process) syscall(t *sim.Task, build func(token uint64) wire.Message) (wire.Completion, error) {
	f := p.getFuture()
	p.nextToken++
	if !p.send(sysWaiter{fut: f}, p.nextToken, build(p.nextToken)) {
		f.Fail(ErrDisconnected)
	}
	m, err := wait(t, f)
	p.putFuture(f)
	return m, err
}

func (p *Process) getFuture() *sim.Future[wire.Completion] { return p.futures.Get() }

func (p *Process) putFuture(f *sim.Future[wire.Completion]) {
	f.Reset()
	p.futures.Put(f)
}

// wait blocks on a syscall completion and converts its status.
func wait(t *sim.Task, f *sim.Future[wire.Completion]) (wire.Completion, error) {
	m, err := f.Wait(t)
	if err != nil {
		return m, err
	}
	if m.Status != wire.StatusOK {
		return m, m.Status.Err()
	}
	return m, nil
}

// Null performs the no-op syscall (Table 3's micro-benchmark).
func (p *Process) Null(t *sim.Task) error {
	_, err := p.syscall(t, func(tok uint64) wire.Message {
		p.tx.null = wire.Null{Token: tok}
		return &p.tx.null
	})
	return err
}

// MemoryCreate registers [base, base+size) of the arena as a Memory
// object (memory_create).
func (p *Process) MemoryCreate(t *sim.Task, base, size uint64, perms cap.Rights) (Cap, error) {
	m, err := p.syscall(t, func(tok uint64) wire.Message {
		p.tx.memCreate = wire.MemCreate{Token: tok, Base: base, Size: size, Perms: perms}
		return &p.tx.memCreate
	})
	if err != nil {
		return Cap{}, err
	}
	return Cap{p: p, id: m.Cid, kind: cap.KindMemory, rights: perms & cap.MemRights, size: size}, nil
}

// AllocMemory allocates a region from the arena and registers it as a
// Memory object in one step, returning the capability and the backing
// bytes.
func (p *Process) AllocMemory(t *sim.Task, size int, perms cap.Rights) (Cap, []byte, error) {
	off, err := p.alloc.alloc(size)
	if err != nil {
		return Cap{}, nil, err
	}
	c, err := p.MemoryCreate(t, uint64(off), uint64(size), perms)
	if err != nil {
		p.alloc.free(off)
		return Cap{}, nil, err
	}
	return c, p.Arena()[off : off+size], nil
}

// MemoryDiminish derives a narrower view of a Memory capability
// (memory_diminish).
func (p *Process) MemoryDiminish(t *sim.Task, c Cap, offset, size uint64, drop cap.Rights) (Cap, error) {
	if err := p.checkOwn(c); err != nil {
		return Cap{}, err
	}
	m, err := p.syscall(t, func(tok uint64) wire.Message {
		p.tx.memDiminish = wire.MemDiminish{Token: tok, Cid: c.id, Offset: offset, Size: size, Drop: drop}
		return &p.tx.memDiminish
	})
	if err != nil {
		return Cap{}, err
	}
	return Cap{p: p, id: m.Cid, kind: cap.KindMemory, rights: c.rights.Diminish(drop), size: size}, nil
}

// MemoryCopy copies all bytes from src into dst (memory_copy),
// wherever either lives.
func (p *Process) MemoryCopy(t *sim.Task, src, dst Cap) error {
	return p.MemoryCopyRange(t, src, 0, dst, 0, 0)
}

// MemoryCopyRange copies the n bytes at srcOff of src to dstOff of dst:
// a memory_copy of part of either object, with no view derived for it.
// n 0 is all of src, which then takes both offsets 0.
func (p *Process) MemoryCopyRange(t *sim.Task, src Cap, srcOff uint64, dst Cap, dstOff, n uint64) error {
	if err := p.checkOwn(src, dst); err != nil {
		return err
	}
	_, err := p.syscall(t, func(tok uint64) wire.Message {
		p.tx.memCopy = wire.MemCopy{Token: tok, SrcCid: src.id, DstCid: dst.id, SrcOff: srcOff, DstOff: dstOff, Len: n}
		return &p.tx.memCopy
	})
	return err
}

// MemoryCopyThen is MemoryCopyRange for a record in kernel context: it
// posts the memory_copy, whose completion steps w, and returns. It fails,
// with nothing posted, on a handle of another Process or a channel to
// the Controller that is gone.
func (p *Process) MemoryCopyThen(src Cap, srcOff uint64, dst Cap, dstOff, n uint64, w Waiter) error {
	if err := p.checkOwn(src, dst); err != nil {
		return err
	}
	p.nextToken++
	p.tx.memCopy = wire.MemCopy{Token: p.nextToken, SrcCid: src.id, DstCid: dst.id, SrcOff: srcOff, DstOff: dstOff, Len: n}
	if !p.send(sysWaiter{op: w}, p.nextToken, &p.tx.memCopy) {
		return ErrDisconnected
	}
	return nil
}

// RequestCreate creates a new Request provided by this Process
// (request_create). Tag identifies the RPC to the provider's serve
// loop; invocations of this Request (and all Requests derived from it)
// are delivered carrying it.
func (p *Process) RequestCreate(t *sim.Task, tag uint64, imms []wire.ImmArg, args []Arg) (Cap, error) {
	if err := p.checkArgs(args); err != nil {
		return Cap{}, err
	}
	m, err := p.syscall(t, func(tok uint64) wire.Message {
		p.tx.reqCreate = wire.ReqCreate{Token: tok, Parent: cap.NilCap, Tag: tag, Imms: p.keepImms(imms), Caps: p.capSlots(args)}
		return &p.tx.reqCreate
	})
	if err != nil {
		return Cap{}, err
	}
	return Cap{p: p, id: m.Cid, kind: cap.KindRequest, rights: cap.ReqRights}, nil
}

// Derive refines an existing Request with additional arguments
// (request_create with an existing Request); already-set arguments are
// immutable.
func (p *Process) Derive(t *sim.Task, parent Cap, imms []wire.ImmArg, args []Arg) (Cap, error) {
	if err := p.checkOwn(parent); err != nil {
		return Cap{}, err
	}
	if err := p.checkArgs(args); err != nil {
		return Cap{}, err
	}
	m, err := p.syscall(t, func(tok uint64) wire.Message {
		p.tx.reqCreate = wire.ReqCreate{Token: tok, Parent: parent.id, Imms: p.keepImms(imms), Caps: p.capSlots(args)}
		return &p.tx.reqCreate
	})
	if err != nil {
		return Cap{}, err
	}
	return Cap{p: p, id: m.Cid, kind: cap.KindRequest, rights: parent.rights}, nil
}

// Invoke invokes a Request (request_invoke) with invoke-time argument
// refinements, which it reads before it returns. It returns once the
// invocation has been accepted and delivered/queued at the provider;
// results, if any, arrive through continuation Requests.
//
//fractos:ordered
func (p *Process) Invoke(t *sim.Task, req Cap, imms []wire.ImmArg, args []Arg) error {
	if err := p.checkInvoke(req, args); err != nil {
		return err
	}
	_, err := p.syscall(t, func(tok uint64) wire.Message {
		p.tx.reqInvoke = wire.ReqInvoke{Token: tok, Cid: req.id, Imms: p.keepImms(imms), Caps: p.capSlots(args)}
		return &p.tx.reqInvoke
	})
	return err
}

// checkInvoke verifies the handles of an invocation belong to this
// Process.
func (p *Process) checkInvoke(req Cap, args []Arg) error {
	if err := p.checkOwn(req); err != nil {
		return err
	}
	return p.checkArgs(args)
}

// Revtree creates a separately revocable child capability
// (cap_create_revtree).
func (p *Process) Revtree(t *sim.Task, c Cap) (Cap, error) {
	if err := p.checkOwn(c); err != nil {
		return Cap{}, err
	}
	m, err := p.syscall(t, func(tok uint64) wire.Message {
		p.tx.capRevtree = wire.CapRevtree{Token: tok, Cid: c.id}
		return &p.tx.capRevtree
	})
	if err != nil {
		return Cap{}, err
	}
	return Cap{p: p, id: m.Cid, kind: c.kind, rights: c.rights, size: c.size}, nil
}

// Revoke revokes a capability: the object it references and all
// revocation-tree descendants are invalidated immediately at the owner
// (cap_revoke).
func (p *Process) Revoke(t *sim.Task, c Cap) error {
	if err := p.checkOwn(c); err != nil {
		return err
	}
	_, err := p.syscall(t, func(tok uint64) wire.Message {
		p.tx.capRevoke = wire.CapRevoke{Token: tok, Cid: c.id}
		return &p.tx.capRevoke
	})
	return err
}

// Drop discards the capability-space entry without revoking.
func (p *Process) Drop(t *sim.Task, c Cap) error {
	if err := p.checkOwn(c); err != nil {
		return err
	}
	_, err := p.syscall(t, func(tok uint64) wire.Message {
		p.tx.capDrop = wire.CapDrop{Token: tok, Cid: c.id}
		return &p.tx.capDrop
	})
	return err
}

// MonitorDelegate registers fn to run when every child delegated from
// c has been invalidated (monitor_delegate, §3.6). The capability must
// reference an object owned by this Process's Controller and must not
// have children yet.
func (p *Process) MonitorDelegate(t *sim.Task, c Cap, fn func()) error {
	p.nextCB++
	id := p.nextCB
	p.monitors[id] = func(*sim.Task) { fn() }
	_, err := p.syscall(t, func(tok uint64) wire.Message {
		p.tx.monitorDelegate = wire.MonitorDelegate{Token: tok, Cid: c.id, Callback: id}
		return &p.tx.monitorDelegate
	})
	if err != nil {
		delete(p.monitors, id)
	}
	return err
}

// MonitorReceive registers fn to run when c's object is invalidated —
// by explicit revocation or failure (monitor_receive, §3.6).
func (p *Process) MonitorReceive(t *sim.Task, c Cap, fn func()) error {
	p.nextCB++
	id := p.nextCB
	p.monitors[id] = func(*sim.Task) { fn() }
	_, err := p.syscall(t, func(tok uint64) wire.Message {
		p.tx.monitorReceive = wire.MonitorReceive{Token: tok, Cid: c.id, Callback: id}
		return &p.tx.monitorReceive
	})
	if err != nil {
		delete(p.monitors, id)
	}
	return err
}

// Bye announces a graceful exit; the Controller revokes everything the
// Process provided. A send failure means the Controller already tore
// the Process down — the revocations Bye asks for have happened.
func (p *Process) Bye() {
	p.dead = true
	//fractos:mustuse-ok already-disconnected means the Controller cleaned up first
	p.net.Send(p.ep.ID, p.ctrlEP, &wire.ProcBye{})
}

// capSlots converts argument handles to their wire form in the
// Process's scratch list, which stays valid until the next syscall is
// built.
func (p *Process) capSlots(args []Arg) []wire.CapSlot {
	p.slots = appendSlots(p.slots[:0], args)
	return p.slots
}

// keepImms copies a one-shot syscall's immediates into the Process's own
// storage, valid until the next syscall is built.
func (p *Process) keepImms(imms []wire.ImmArg) []wire.ImmArg {
	p.tx.imms, p.tx.immData = wire.KeepImms(p.tx.imms, p.tx.immData, imms)
	return p.tx.imms
}

func appendSlots(out []wire.CapSlot, args []Arg) []wire.CapSlot {
	for _, a := range args {
		out = append(out, wire.CapSlot{Slot: a.Slot, Cid: a.Cap.id})
	}
	return out
}

// GrantCap hands a capability from one Process to another through the
// trusted bootstrap path (the paper's key/value bootstrap service).
// Normal capability flow is via Request arguments; this is only for
// handing a fresh Process its initial capabilities.
func GrantCap(from *Process, c Cap, to *Process) (Cap, error) {
	cid, err := core.Grant(from.ctrl, from.id, c.id, to.ctrl, to.id)
	if err != nil {
		return Cap{}, err
	}
	return Cap{p: to, id: cid, kind: c.kind, rights: c.rights, size: c.size}, nil
}

// CapFromDelivered wraps a delivered capability descriptor in a Cap
// handle bound to this Process.
func (p *Process) CapFromDelivered(d wire.DeliveredCap) Cap {
	return Cap{p: p, id: d.Cid, kind: d.Kind, rights: d.Rights, size: d.Size}
}

// fmt stringer for diagnostics.
func (c Cap) String() string {
	return fmt.Sprintf("cap(cid=%d %v %v size=%d)", c.id, c.kind, c.rights, c.size)
}
