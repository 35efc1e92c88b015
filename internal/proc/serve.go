package proc

import (
	"encoding/binary"

	"fractos/internal/cap"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// Delivery is a request_receive descriptor: an invocation that arrived
// at this Process. Imms is the merged immediate-argument buffer; Caps
// are the delegated capability arguments, already installed in this
// Process's capability space.
type Delivery struct {
	p    *Process
	Seq  uint64
	Tag  uint64
	Imms []byte
	Caps []wire.DeliveredCap

	acked bool

	// The descriptor owns its arguments — the message they arrived in
	// was borrowed from the frame — and arguments of the usual size live
	// in the descriptor itself: one allocation per delivery.
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

// newDelivery copies a request_receive descriptor out of its message.
func (p *Process) newDelivery(m *wire.Deliver) *Delivery {
	dv := &Delivery{p: p, Seq: m.Seq, Tag: m.Tag}
	dv.Imms = append(dv.immStore[:0], m.Imms...)
	dv.Caps = append(dv.capStore[:0], m.Caps...)
	return dv
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
// credit at the Controller (§4). Safe to call more than once. A send
// failure means the Controller tore this Process down (crash or
// FailProcess); the credit died with the window, so mark the Process
// dead rather than pretend the ack was delivered.
func (d *Delivery) Done() { d.ack(nil) }

// Release is Done for a receiver that keeps nothing it was sent: the
// same acknowledgement hands back the capabilities the delivery
// installed, so serving a request leaves no entry behind. Call it after
// the last use of d's capabilities.
func (d *Delivery) Release() {
	back := d.p.tx.back[:0]
	for _, c := range d.Caps {
		back = append(back, c.Cid)
	}
	d.p.tx.back = back
	d.ack(back)
}

func (d *Delivery) ack(back []cap.CapID) {
	if d.acked {
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
// convention for results — invoking it with imms and args. A delivery
// that carries no continuation asked for no answer: Reply then sends
// nothing and returns nil.
//
// Reply posts the request_invoke and returns. Its completion only says
// whether the answer was accepted: demux consumes it and counts a
// refusal (FailedReplies) — the continuation is dead, and with it
// whoever waited, so a service has nobody left to tell. The error is
// for what fails here: an argument of another Process, a channel to the
// Controller already gone.
//
// Reply then Release is safe: the Process→Controller queue is FIFO, so
// the request_invoke is validated before the DeliverDone posted after it
// drops the continuation's entry (and core.invoked spares the cid if it
// is reissued before the owner reports the reply spent).
func (d *Delivery) Reply(slot uint16, imms []wire.ImmArg, args []Arg) error {
	c, ok := d.Cap(slot)
	if !ok {
		return nil
	}
	p := d.p
	if err := p.checkArgs(args); err != nil {
		return err
	}
	p.nextToken++
	p.tx.reqInvoke = wire.ReqInvoke{Token: p.nextToken, Cid: c.id, Imms: imms, Caps: p.capSlots(args)}
	if !p.send(sysWaiter{}, p.nextToken, &p.tx.reqInvoke) {
		return ErrDisconnected
	}
	return nil
}

// ReplyStatus is Reply with nothing but a status, in imm[0:8), built in
// the Process's own storage: the message is encoded before Reply
// returns.
func (d *Delivery) ReplyStatus(slot uint16, st uint64) error {
	p := d.p
	binary.LittleEndian.PutUint64(p.tx.status[:], st)
	p.tx.statusImm[0] = wire.ImmArg{Data: p.tx.status[:]}
	return d.Reply(slot, p.tx.statusImm[:], nil)
}

// FailedReplies is how many of this Process's replies the Controllers
// refused, their continuations revoked, spent or gone: Reply does not
// wait to find out, so this is where a lost answer shows.
func (p *Process) FailedReplies() int { return p.failedReplies }

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

// Serve spawns the task that serves this Process's Requests: it
// receives every delivery no Call or WaitTag claims, hands it to h and,
// when h returns, acknowledges it (Done: nothing more if h did). A
// reply h posted is ahead of that acknowledgement (Reply). width
// sets how deliveries run. 1 runs h in the serving task, one delivery
// after another; n > 1 gives each delivery a task of its own, at most n
// at once; 0 gives each its own task with no bound of Serve's — the
// Controller's congestion window (§4) already bounds a Process's
// unacknowledged deliveries.
func (p *Process) Serve(name string, width int, h func(*sim.Task, *Delivery)) {
	var busy *sim.Semaphore
	if width > 1 {
		busy = sim.NewSemaphore(width)
	}
	p.k.Spawn(name, func(t *sim.Task) {
		for {
			d, ok := p.Receive(t)
			if !ok {
				return
			}
			if width == 1 {
				h(t, d)
				d.Done()
				continue
			}
			if busy != nil {
				busy.Acquire(t)
			}
			p.k.Spawn(name, func(ht *sim.Task) {
				h(ht, d)
				d.Done()
				if busy != nil {
					busy.Release()
				}
			})
		}
	})
}

// Receive blocks until the next unmatched invocation arrives
// (request_receive). The caller must call Done or Release on the result.
// Serve is the loop around it that services need.
func (p *Process) Receive(t *sim.Task) (*Delivery, bool) {
	return p.incoming.Recv(t)
}

// ReceiveTimeout is Receive with a virtual-time deadline.
func (p *Process) ReceiveTimeout(t *sim.Task, d sim.Time) (*Delivery, bool) {
	return p.incoming.RecvTimeout(t, d)
}

// NewTag allocates a Process-unique Request tag. Tags starting at
// 1<<32 are reserved for continuations; service tags should be small
// constants.
func (p *Process) NewTag() uint64 {
	p.nextTag++
	return (1 << 32) + p.nextTag
}

// WaitTag blocks until an invocation with the given tag arrives,
// bypassing the Receive queue. Register interest before invoking to
// avoid racing the reply into the shared queue.
func (p *Process) WaitTag(tag uint64) *sim.Future[*Delivery] {
	w, ok := p.waiters[tag]
	if !ok {
		w.fut = sim.NewFuture[*Delivery]()
		p.waiters[tag] = w
	}
	return w.fut
}

// ReplyRequest creates a fresh Request served by this Process with a
// unique tag, for use as an RPC continuation argument. It delivers every
// invocation; Call's own are single-use per delegation (wire.ReplyTag).
func (p *Process) ReplyRequest(t *sim.Task) (Cap, uint64, error) {
	tag := p.NewTag()
	c, err := p.RequestCreate(t, tag, nil, nil)
	if err != nil {
		return Cap{}, 0, err
	}
	return c, tag, nil
}

// CallWith invokes req and waits for an invocation with replyTag to
// come back. The reply Request carrying replyTag must already be among
// args (or preset in the Request) — latency-critical paths exchange
// Requests ahead of time, as the paper's micro-benchmarks do, and this
// entry point lets them reuse one reply Request across calls.
func (p *Process) CallWith(t *sim.Task, req Cap, imms []wire.ImmArg, args []Arg, replyTag uint64) (*Delivery, error) {
	f := p.WaitTag(replyTag)
	if err := p.Invoke(t, req, imms, args); err != nil {
		delete(p.waiters, replyTag)
		return nil, err
	}
	d, err := f.Wait(t)
	if err != nil {
		return nil, err
	}
	d.Done()
	return d, nil
}

// U64Arg encodes a little-endian uint64 immediate argument at offset.
func U64Arg(off int, v uint64) wire.ImmArg {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return wire.ImmArg{Offset: uint32(off), Data: b[:]}
}

// BytesArg places raw bytes at an immediate offset.
func BytesArg(off int, b []byte) wire.ImmArg {
	return wire.ImmArg{Offset: uint32(off), Data: b}
}
