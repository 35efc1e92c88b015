package proc

import (
	"encoding/binary"
	"slices"

	"fractos/internal/cap"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// Delivery is a request_receive descriptor: an invocation that arrived
// at this Process. Imms is the merged immediate-argument buffer; Caps
// are the delegated capability arguments, already installed in this
// Process's capability space.
//
// How long a descriptor is valid depends on who received it. Receive
// hands it to the application, which keeps it. The others come from a
// per-Process pool and go back to it: a Handle handler's when it calls
// Finish (Handle), a task's when its handler returns (Tasks; Serve is
// Handle plus Tasks), and the reply of a Call, CallTimeout or CallWith,
// which is borrowed until the calling task next blocks or starts another
// Call (Call). Whatever outlives that is copied out first.
type Delivery struct {
	p    *Process
	Seq  uint64
	Tag  uint64
	Imms []byte
	Caps []wire.DeliveredCap

	acked bool

	// The descriptor owns its arguments — the message they arrived in
	// was borrowed from the frame — and arguments of the usual size live
	// in the descriptor itself. A recycled descriptor keeps whatever
	// larger storage an earlier delivery grew it to.
	immStore [inlineImm]byte
	capStore [inlineCaps]wire.DeliveredCap
}

// A null RPC carries one 8-byte immediate and the reply Request; the
// evaluation's services pass up to 64 bytes of header, name and kernel
// arguments and, but for a few lists of 4 to 16, at most two
// capabilities. Larger argument lists spill to the heap.
const (
	inlineImm  = 64
	inlineCaps = 2
)

// getDelivery copies a request_receive descriptor out of its message
// into a record of the Process's pool. A new record starts with its
// inline storage; slices.Grow enlarges it only for arguments that do not
// fit, once per record, since a recycled record keeps what it grew to.
func (p *Process) getDelivery(m *wire.Deliver) *Delivery {
	dv := p.deliveries.Get()
	if dv.Imms == nil {
		dv.Imms, dv.Caps = dv.immStore[:0], dv.capStore[:0]
	}
	dv.p, dv.Seq, dv.Tag = p, m.Seq, m.Tag
	dv.Imms = slices.Grow(dv.Imms[:0], len(m.Imms))[:len(m.Imms)]
	copy(dv.Imms, m.Imms)
	dv.Caps = slices.Grow(dv.Caps[:0], len(m.Caps))[:len(m.Caps)]
	copy(dv.Caps, m.Caps)
	return dv
}

// Handle makes h the Process's server in kernel context: demux passes it
// every delivery no Call claims instead of queueing it for Receive. h
// must not block: a request that waits for a device or a
// syscall is a record stepped by those events (MemoryCopyThen), one that
// makes blocking syscalls goes to a task (Tasks). The descriptor is h's
// until it calls Finish on it, in h or in a later event.
func (p *Process) Handle(h func(*Delivery)) { p.handler = h }

// Finish ends a Handle handler's delivery: it releases it unless it was
// acknowledged already, and takes the descriptor back.
func (d *Delivery) Finish() {
	d.Release()
	d.p.putDelivery(d)
}

// Cap returns the delegated capability in the given argument slot.
func (d *Delivery) Cap(slot uint16) (Cap, bool) {
	for _, c := range d.Caps {
		if c.Slot == slot {
			return d.p.CapFromDelivered(c), true
		}
	}
	return Cap{}, false
}

// U64 reads a little-endian uint64 immediate at offset, zero if out of
// range (services define their own argument layouts).
func (d *Delivery) U64(off int) uint64 {
	if off < 0 || off+8 > len(d.Imms) {
		return 0
	}
	return binary.LittleEndian.Uint64(d.Imms[off:])
}

// Status decodes the conventional status immediate: RPC-style services
// (the registry, routed replicas) put a wire.Status in the reply's
// imm[0:8). For layouts that don't follow the convention the result is
// whatever those bytes decode to.
func (d *Delivery) Status() wire.Status { return wire.Status(d.U64(0)) }

// Err converts the conventional status immediate into an error: nil
// for StatusOK, a *wire.StatusError otherwise — ready for
// proc.Retryable classification.
func (d *Delivery) Err() error { return d.Status().Err() }

// Done acknowledges the delivery, releasing one congestion-window
// credit at the Controller (§4); a reply holds none, so it sends nothing.
// Safe to call more than once. A send failure means the Controller tore
// this Process down (crash or FailProcess); the credit died with the
// window, so mark the Process dead rather than pretend the ack was
// delivered.
func (d *Delivery) Done() { d.ack(nil) }

// Release is Done for a receiver that keeps nothing it was sent: the
// same acknowledgement hands back the capabilities the delivery
// installed (a reply's too), so serving a request leaves no entry
// behind. Call it after the last use of d's capabilities.
func (d *Delivery) Release() {
	back := d.p.tx.back[:0]
	for _, c := range d.Caps {
		back = append(back, c.Cid)
	}
	d.p.tx.back = back
	d.ack(back)
}

func (d *Delivery) ack(back []cap.CapID) {
	if d.acked || len(back) == 0 && d.Tag&wire.ReplyTag != 0 {
		return
	}
	d.acked = true
	p := d.p
	p.tx.done = wire.DeliverDone{Seq: d.Seq, Drop: back}
	if !p.net.Send(p.ep.ID, p.ctrlEP, &p.tx.done) {
		p.dead = true
	}
}

// Name reads the name argument of the service interfaces: its length at
// imm[8:16), its bytes at [16:16+length). It reports false for an empty
// name and for one that runs past the immediates.
func (d *Delivery) Name() (string, bool) {
	n := d.U64(8)
	if n == 0 || !wire.Within(16, n, uint64(len(d.Imms))) {
		return "", false
	}
	return string(d.Imms[16 : 16+n]), true
}

// Reply answers through the continuation in slot — the services'
// convention for results — invoking it with imms and args; imms is read
// before this returns. A delivery that carries no continuation asked for
// no answer: Reply then sends nothing and returns nil.
//
// Reply posts the request_invoke under token 0 and returns: nobody
// waits for its outcome, so no completion comes back. A refusal is
// counted where it is decided (core.Metrics.InvokesRefused) — the
// continuation is dead, and with it whoever waited, so a service has
// nobody left to tell. The error is for what fails here: an argument of
// another Process, a channel to the Controller already gone.
//
// Reply then Release is safe: the Process→Controller queue is FIFO, so
// the request_invoke is validated before the DeliverDone posted after it
// drops the continuation's entry (which the Controller already dropped
// as it forwarded the invocation, if the continuation is a reply
// Request: that delegation is good for one delivery).
func (d *Delivery) Reply(slot uint16, imms []wire.ImmArg, args []Arg) error {
	c, ok := d.Cap(slot)
	if !ok {
		return nil
	}
	p := d.p
	if err := p.checkArgs(args); err != nil {
		return err
	}
	p.tx.reqInvoke = wire.ReqInvoke{Cid: c.id, Imms: p.keepImms(imms), Caps: p.capSlots(args)}
	if p.dead || !p.net.Send(p.ep.ID, p.ctrlEP, &p.tx.reqInvoke) {
		return ErrDisconnected
	}
	return nil
}

// ReplyStatus is Reply with nothing but a status, in imm[0:8).
func (d *Delivery) ReplyStatus(slot uint16, st uint64) error {
	return d.Reply(slot, []wire.ImmArg{U64Arg(0, st)}, nil)
}

// Upstream applies the chaining convention of a Request that can be
// another service's continuation (§3.4): its producer reports an
// outcome in imm[0:8), and a non-zero one means the inputs never
// arrived. Upstream passes such a status on to slot and reports true,
// and the handler returns without running.
func (d *Delivery) Upstream(slot uint16) bool {
	st := d.U64(0)
	if st == 0 {
		return false
	}
	d.ReplyStatus(slot, st)
	return true
}

// Serve serves this Process's Requests in tasks: it is
// Handle(Tasks(name, width, h)), so every delivery no Call claims goes
// to h in a task of its own, at most width at once.
func (p *Process) Serve(name string, width int, h func(*sim.Task, *Delivery)) {
	p.Handle(p.Tasks(name, width, h))
}

// Tasks returns a Handle handler's hand-off to tasks, for requests that
// make blocking syscalls: passed a delivery, it runs h on it in a task
// named name and, when h returns, acknowledges it (Done: nothing more if
// h did). A reply h posted is ahead of that acknowledgement (Reply).
// width bounds the deliveries in service: 1 serves them one after
// another, n at most n at once; 0 sets no bound of its own — the
// Controller's congestion window (§4) already bounds a Process's
// unacknowledged deliveries. A delivery that finds width in service
// waits in arrival order, and the next task to finish serves it.
//
// The delivery is valid until h returns: it is then taken back for the
// next delivery, so h copies out whatever it keeps.
func (p *Process) Tasks(name string, width int, h func(*sim.Task, *Delivery)) func(*Delivery) {
	s := &server{p: p, name: name, h: h, width: width}
	p.k.Track(name+" serveOp", &s.ops)
	return s.dispatch
}

// server is one Tasks hand-off: what it runs per delivery, how many
// deliveries are in service, those waiting for one to finish and the
// records their tasks start from.
type server struct {
	p       *Process
	name    string
	h       func(*sim.Task, *Delivery)
	width   int         // deliveries in service at most; 0: no bound
	busy    int         // deliveries in service
	waiting []*Delivery // deliveries that found width in service, oldest first
	ops     sim.FreeList[serveOp]
}

// serveOp is a delivery on its way into a task of its own: a pooled
// record whose task body, run, is bound once, so spawning a delivery's
// task allocates no closure.
type serveOp struct {
	s   *server
	d   *Delivery
	run func(*sim.Task)
}

// finish runs the handler on d in t, acknowledges d and takes it back.
func (s *server) finish(d *Delivery, t *sim.Task) {
	s.h(t, d)
	d.Done()
	s.p.putDelivery(d)
}

func (s *server) getOp() *serveOp {
	op := s.ops.Get()
	if op.run == nil {
		op.s, op.run = s, op.serve
	}
	return op
}

func (s *server) putOp(op *serveOp) {
	op.d = nil
	s.ops.Put(op)
}

// dispatch starts a task of its own for d, or queues d while width
// deliveries are in service. Tasks are spawned in arrival order, under
// the server's name, at the instant d arrives.
func (s *server) dispatch(d *Delivery) {
	if s.busy == s.width && s.width > 0 {
		s.waiting = append(s.waiting, d)
		return
	}
	s.busy++
	op := s.getOp()
	op.d = d
	op.spawn()
}

// spawn starts the op's task, which owns the op from then on.
func (op *serveOp) spawn() { op.s.p.k.Spawn(op.s.name, op.run) }

// serve is the op's task: it puts the record back and serves its
// delivery, then each that queued meanwhile, with no event between
// them.
func (op *serveOp) serve(t *sim.Task) {
	s, d := op.s, op.d
	s.putOp(op)
	for {
		s.finish(d, t)
		if len(s.waiting) == 0 {
			break
		}
		d = s.waiting[0]
		s.waiting = slices.Delete(s.waiting, 0, 1)
	}
	s.busy--
}

// Receive blocks until the next unmatched invocation arrives
// (request_receive). The descriptor is the caller's to keep, and it must
// call Done or Release on it. A Process that serves its Requests calls
// Serve instead.
func (p *Process) Receive(t *sim.Task) (*Delivery, bool) {
	return p.incoming.Recv(t)
}

// NewTag allocates a Process-unique Request tag. Tags starting at
// 1<<32 are reserved for continuations; service tags should be small
// constants.
func (p *Process) NewTag() uint64 {
	p.nextTag++
	return (1 << 32) + p.nextTag
}

// ReplyRequest creates a fresh reply Request (wire.ReplyTag) served by
// this Process, for a continuation that CallWith waits on: it delivers
// only the one reply of the CallWith in progress, if any, and refuses
// every other invocation.
func (p *Process) ReplyRequest(t *sim.Task) (Cap, uint64, error) {
	tag := wire.ReplyTag | p.NewTag()
	c, err := p.RequestCreate(t, tag, nil, nil)
	if err != nil {
		return Cap{}, 0, err
	}
	return c, tag, nil
}

// U64Arg encodes a little-endian uint64 immediate argument at offset.
// Every entry point that takes imms reads them before it returns, so
// the argument need not outlive the call.
func U64Arg(off int, v uint64) wire.ImmArg {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return wire.ImmArg{Offset: uint32(off), Data: b[:]}
}

// BytesArg places raw bytes at an immediate offset.
func BytesArg(off int, b []byte) wire.ImmArg {
	return wire.ImmArg{Offset: uint32(off), Data: b}
}
