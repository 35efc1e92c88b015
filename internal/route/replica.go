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
//
// Work request immediates: [0:8) = request id (0 = none; non-zero ids
// are deduplicated so a retried request is not executed twice by the
// same replica), [8:16) and up are service-defined (the Handler sees
// the raw Delivery). Reply immediates: [0:8) = wire.Status, [8:16) =
// the replica's queue depth after the operation (the load signal
// least-loaded routing feeds on).
const (
	// WorkSlotCont is the reply-continuation slot in a work request.
	WorkSlotCont uint16 = 1
	// workTag is the tag of a replica's root Request.
	workTag uint64 = 0x50
	// maxQueue is a replica's admission bound: requests queued plus the
	// one in service.
	maxQueue = 16
)

// Handler executes one admitted request and returns the reply status.
type Handler func(t *sim.Task, d *proc.Delivery) wire.Status

// ReplicaStats counts a replica's admission decisions.
type ReplicaStats struct {
	Accepted   int
	Shed       int // refused with StatusBackpressure at the admission bound
	Completed  int
	Duplicates int // re-delivered ids answered without re-execution
	DepthHWM   int
}

// Replica is one instance of a routed service: a Process serving a
// root Request behind a bounded admission queue. Its serving task
// admits up to maxQueue outstanding requests and sheds the rest with
// wire.StatusBackpressure (retryable — the balancer backs off or
// fails over) instead of queueing unboundedly; one worker task drains
// the queue through Handler. Every reply piggybacks the current queue
// depth, which is the load signal least-loaded routing consumes.
type Replica struct {
	P *proc.Process
	// Handler executes admitted requests; nil replies OK immediately.
	Handler Handler

	// Root is the replica's root Request, filled by Start; register it
	// under the service's name.
	Root proc.Cap

	queue  *sim.Chan[*proc.Delivery]
	depth  int
	seen   map[uint64]bool
	served []uint64
	stats  ReplicaStats

	// The status and depth immediates of a reply: Reply has encoded the
	// message when it returns, so one set serves every reply.
	replyBuf  [16]byte
	replyImms [2]wire.ImmArg
}

// Start creates the root Request and starts serving it.
func (r *Replica) Start(t *sim.Task) error {
	root, err := r.P.RequestCreate(t, workTag, nil, nil)
	if err != nil {
		return fmt.Errorf("route: replica: %w", err)
	}
	r.Root = root
	r.seen = make(map[uint64]bool)
	k := r.P.Kernel()
	r.queue = sim.NewChan[*proc.Delivery](k, "replica-q", maxQueue)
	k.Spawn("replica-rx", r.receive)
	k.Spawn("replica-worker", r.work)
	return nil
}

// receive admits each delivery and acknowledges it. The worker answers
// an admitted request after admit has returned, so the replica keeps its
// descriptors: it receives them itself rather than through Serve, which
// takes each one back when its handler returns.
func (r *Replica) receive(t *sim.Task) {
	for {
		d, ok := r.P.Receive(t)
		if !ok {
			return
		}
		r.admit(t, d)
		d.Done()
	}
}

// Stats returns the admission counters.
func (r *Replica) Stats() ReplicaStats { return r.stats }

// Served returns the non-zero request ids executed by this replica, in
// execution order (the double-delivery oracle for soak tests).
func (r *Replica) Served() []uint64 { return r.served }

// admit queues a request for the worker or answers it at once.
func (r *Replica) admit(t *sim.Task, d *proc.Delivery) {
	id := d.U64(0)
	switch {
	case id != 0 && r.seen[id]:
		// The balancer retried a request this replica already
		// admitted (its first reply was lost to a fault); answer
		// idempotently instead of executing twice.
		r.stats.Duplicates++
		r.reply(d, wire.StatusOK)
	case r.depth >= maxQueue:
		r.stats.Shed++
		r.reply(d, wire.StatusBackpressure)
	default:
		if id != 0 {
			r.seen[id] = true
		}
		r.depth++
		if r.depth > r.stats.DepthHWM {
			r.stats.DepthHWM = r.depth
		}
		r.stats.Accepted++
		// Never blocks: depth < maxQueue implies queue space.
		r.queue.Send(t, d)
	}
}

func (r *Replica) work(t *sim.Task) {
	for {
		d, ok := r.queue.Recv(t)
		if !ok {
			return
		}
		st := wire.StatusOK
		if r.Handler != nil {
			st = r.Handler(t, d)
		}
		if id := d.U64(0); id != 0 {
			r.served = append(r.served, id)
		}
		r.depth--
		r.stats.Completed++
		r.reply(d, st)
	}
}

// reply answers with the status and the replica's queue depth: two
// 8-byte immediates in the replica's own storage.
func (r *Replica) reply(d *proc.Delivery, st wire.Status) {
	binary.LittleEndian.PutUint64(r.replyBuf[0:8], uint64(st))
	binary.LittleEndian.PutUint64(r.replyBuf[8:16], uint64(r.depth))
	r.replyImms = [2]wire.ImmArg{{Offset: 0, Data: r.replyBuf[0:8]}, {Offset: 8, Data: r.replyBuf[8:16]}}
	// A failed reply means the caller (or this replica's own Controller)
	// is gone; the retry/failover layers on the client side own recovery.
	d.Reply(WorkSlotCont, r.replyImms[:], nil)
}
