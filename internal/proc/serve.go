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

// Receive blocks until the next unmatched invocation arrives
// (request_receive). The caller must call Done or Release on the result.
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

// Subscribe routes every delivery with the given tag into a dedicated
// channel, bypassing both Receive and WaitTag. Use it when multiple
// invocations of the same Request are expected (e.g. a fork/join
// collection point). Unsubscribe to stop.
func (p *Process) Subscribe(tag uint64) *sim.Chan[*Delivery] {
	ch, ok := p.subs[tag]
	if !ok {
		ch = sim.NewChan[*Delivery](p.k, p.ep.Name+".sub", 0)
		p.subs[tag] = ch
	}
	return ch
}

// Unsubscribe removes a tag subscription; later deliveries flow to
// WaitTag/Receive again.
func (p *Process) Unsubscribe(tag uint64) {
	delete(p.subs, tag)
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
