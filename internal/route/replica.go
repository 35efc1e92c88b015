package route

import (
	"encoding/binary"
	"fmt"

	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// Routed-service wire conventions. A replica serves one root Request;
// callers use the Balancer, which follows this layout.
const (
	// WorkTag is the default tag for routed-service root Requests.
	WorkTag uint64 = 0x50
	// WorkSlotCont is the reply-continuation slot in a work request.
	WorkSlotCont uint16 = 1
)

// Work request immediates: [0:8) = request id (0 = none; non-zero ids
// are deduplicated so a retried request is not executed twice by the
// same replica), [8:16) and up are service-defined (the Handler sees
// the raw Delivery). Reply immediates: [0:8) = wire.Status, [8:16) =
// the replica's queue depth after the operation (the load signal
// least-loaded routing feeds on), [16:..) = Handler extras shifted by
// ReplyExtraOff.
const ReplyExtraOff = 16

// DefaultMaxQueue bounds a replica's admission queue when
// Replica.MaxQueue is zero.
const DefaultMaxQueue = 16

// Handler executes one admitted request and returns the reply status
// plus extra reply immediates/caps. Extra immediates are offset
// relative to ReplyExtraOff.
type Handler func(t *sim.Task, d *proc.Delivery) (wire.Status, []wire.ImmArg, []proc.Arg)

// ReplicaStats counts a replica's admission decisions.
type ReplicaStats struct {
	Accepted   int
	Shed       int // refused with StatusBackpressure at MaxQueue
	Completed  int
	Duplicates int // re-delivered ids answered without re-execution
	DepthHWM   int
}

// Replica is one instance of a routed service: a Process serving a
// root Request behind a bounded admission queue. Its serving task
// admits up to MaxQueue outstanding requests and sheds the rest with
// wire.StatusBackpressure (retryable — the balancer backs off or
// fails over) instead of queueing unboundedly; Width worker tasks
// drain the queue through Handler. Every reply piggybacks the current
// queue depth, which is the load signal least-loaded routing and the
// autoscaler consume.
type Replica struct {
	P *proc.Process
	// Tag is the root Request's tag; 0 means WorkTag.
	Tag uint64
	// MaxQueue is the admission bound (queued + in service); 0 means
	// DefaultMaxQueue.
	MaxQueue int
	// Width is the number of worker tasks; 0 means 1.
	Width int
	// Handler executes admitted requests; nil replies OK immediately.
	Handler Handler

	// Root is the replica's root Request, filled by Start; register it
	// under the service's name.
	Root proc.Cap

	queue    *sim.Chan[*proc.Delivery]
	depth    int
	draining bool
	seen     map[uint64]bool
	served   []uint64
	stats    ReplicaStats

	// The status and depth immediates of a reply, and the list reply
	// builds around them: Reply has encoded the message when it returns,
	// so one set serves every reply.
	replyBuf  [16]byte
	replyImms []wire.ImmArg
}

// Start creates the root Request and starts serving it with Width
// workers.
func (r *Replica) Start(t *sim.Task) error {
	if r.Tag == 0 {
		r.Tag = WorkTag
	}
	if r.MaxQueue <= 0 {
		r.MaxQueue = DefaultMaxQueue
	}
	if r.Width <= 0 {
		r.Width = 1
	}
	root, err := r.P.RequestCreate(t, r.Tag, nil, nil)
	if err != nil {
		return fmt.Errorf("route: replica: %w", err)
	}
	r.Root = root
	r.seen = make(map[uint64]bool)
	k := r.P.Kernel()
	r.queue = sim.NewChan[*proc.Delivery](k, "replica-q", r.MaxQueue)
	r.P.Serve("replica-rx", 1, r.admit)
	for i := 0; i < r.Width; i++ {
		k.Spawn(fmt.Sprintf("replica-w%d", i), r.work)
	}
	return nil
}

// Depth returns the current admitted-but-incomplete request count (the
// autoscaler's load signal).
func (r *Replica) Depth() int { return r.depth }

// Stats returns the admission counters.
func (r *Replica) Stats() ReplicaStats { return r.stats }

// Served returns the non-zero request ids executed by this replica, in
// execution order (the double-delivery oracle for soak tests).
func (r *Replica) Served() []uint64 { return r.served }

// Drain stops admitting new requests (they are refused with
// wire.StatusNoProc so callers fail over) and blocks until the queue
// empties. Call before deregistering + Bye for a graceful retire.
func (r *Replica) Drain(t *sim.Task) {
	r.draining = true
	for r.depth > 0 {
		t.Sleep(drainTick)
	}
}

const drainTick = 100 * sim.Time(1000) // 100 µs

// admit queues a request for the workers or answers it at once.
func (r *Replica) admit(t *sim.Task, d *proc.Delivery) {
	id := d.U64(0)
	switch {
	case r.draining:
		r.reply(d, wire.StatusNoProc, nil, nil)
	case id != 0 && r.seen[id]:
		// The balancer retried a request this replica already
		// admitted (its first reply was lost to a fault); answer
		// idempotently instead of executing twice.
		r.stats.Duplicates++
		r.reply(d, wire.StatusOK, nil, nil)
	case r.depth >= r.MaxQueue:
		r.stats.Shed++
		r.reply(d, wire.StatusBackpressure, nil, nil)
	default:
		if id != 0 {
			r.seen[id] = true
		}
		r.depth++
		if r.depth > r.stats.DepthHWM {
			r.stats.DepthHWM = r.depth
		}
		r.stats.Accepted++
		// Never blocks: depth < MaxQueue implies queue space.
		r.queue.Send(t, d)
	}
}

func (r *Replica) work(t *sim.Task) {
	for {
		d, ok := r.queue.Recv(t)
		if !ok {
			return
		}
		st, imms, args := wire.StatusOK, []wire.ImmArg(nil), []proc.Arg(nil)
		if r.Handler != nil {
			st, imms, args = r.Handler(t, d)
		}
		if id := d.U64(0); id != 0 {
			r.served = append(r.served, id)
		}
		r.depth--
		r.stats.Completed++
		r.reply(d, st, imms, args)
	}
}

// reply answers with the status and the replica's queue depth ahead of
// the Handler's extras: two 8-byte immediates in the replica's own
// storage.
func (r *Replica) reply(d *proc.Delivery, st wire.Status, extra []wire.ImmArg, args []proc.Arg) {
	binary.LittleEndian.PutUint64(r.replyBuf[0:8], uint64(st))
	binary.LittleEndian.PutUint64(r.replyBuf[8:16], uint64(r.depth))
	imms := append(r.replyImms[:0],
		wire.ImmArg{Offset: 0, Data: r.replyBuf[0:8]},
		wire.ImmArg{Offset: 8, Data: r.replyBuf[8:16]})
	for _, im := range extra {
		im.Offset += ReplyExtraOff
		imms = append(imms, im)
	}
	r.replyImms = imms
	// A failed reply means the caller (or this replica's own Controller)
	// is gone; the retry/failover layers on the client side own recovery.
	d.Reply(WorkSlotCont, imms, args)
}
