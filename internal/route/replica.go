package route

import (
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
// same replica), [8:16) = the call's work in virtual ns, which the
// Balancer adds to the member's due instant (0 or absent declares none);
// the rest is service-defined (Service sees the raw Delivery).
// Reply immediates: [0:8) = wire.Status.
const (
	// WorkSlotCont is the reply-continuation slot in a work request.
	WorkSlotCont uint16 = 1
	// workTag is the tag of a replica's root Request.
	workTag uint64 = 0x50
	// maxQueue is a replica's admission bound: requests queued plus the
	// one in service.
	maxQueue = 16
)

// ReplicaStats counts a replica's admission decisions.
type ReplicaStats struct {
	Accepted   int
	Shed       int // refused with StatusBackpressure at the admission bound
	Completed  int
	Duplicates int // re-delivered ids answered without re-execution
	DepthHWM   int
}

// Replica is one instance of a routed service: a Process serving a
// root Request behind a bounded admission queue, in kernel context. Its
// handler admits up to maxQueue outstanding requests and sheds the rest
// with wire.StatusBackpressure (retryable — the balancer backs off or
// fails over) instead of queueing unboundedly. The admitted ones are
// served one at a time, in arrival order, each for the time Service
// gives it at admission, and answered OK.
type Replica struct {
	P *proc.Process
	// Service is how long an admitted request takes to serve, asked
	// once, at admission; nil answers every one at once.
	Service func(d *proc.Delivery) sim.Time

	// Root is the replica's root Request, filled by Start; register it
	// under the service's name.
	Root proc.Cap

	queue  []job // admitted: the head is in service
	seen   map[uint64]bool
	served []uint64
	stats  ReplicaStats
}

// job is an admitted request and its service time.
type job struct {
	d *proc.Delivery
	s sim.Time
}

// Start creates the root Request and starts serving it.
func (r *Replica) Start(t *sim.Task) error {
	root, err := r.P.RequestCreate(t, workTag, nil, nil)
	if err != nil {
		return fmt.Errorf("route: replica: %w", err)
	}
	r.Root = root
	r.seen = make(map[uint64]bool)
	r.queue = make([]job, 0, maxQueue) // the admission bound: it never grows
	r.P.Handle(r.admit)
	return nil
}

// Stats returns the admission counters.
func (r *Replica) Stats() ReplicaStats { return r.stats }

// Served returns the non-zero request ids executed by this replica, in
// execution order (the double-delivery oracle for soak tests).
func (r *Replica) Served() []uint64 { return r.served }

// admit queues a request or answers it at once. The credit goes back at
// admission.
func (r *Replica) admit(d *proc.Delivery) {
	id := d.U64(0)
	switch {
	case id != 0 && r.seen[id]:
		// The balancer retried a request this replica already
		// admitted (its first reply was lost to a fault); answer
		// idempotently instead of executing twice.
		r.stats.Duplicates++
		r.answer(d, wire.StatusOK)
	case len(r.queue) >= maxQueue:
		r.stats.Shed++
		r.answer(d, wire.StatusBackpressure)
	default:
		if id != 0 {
			r.seen[id] = true
		}
		var s sim.Time
		if r.Service != nil {
			s = max(r.Service(d), 0)
		}
		r.queue = append(r.queue, job{d, s})
		r.stats.DepthHWM = max(r.stats.DepthHWM, len(r.queue))
		r.stats.Accepted++
		d.Done()
		if len(r.queue) == 1 {
			r.serve()
		}
	}
}

// serve puts the head of the queue in service: the replica is the
// target of its service time's timer. A time of 0 answers it in this
// event, and the next request goes into service.
func (r *Replica) serve() {
	for len(r.queue) > 0 {
		if s := r.queue[0].s; s > 0 {
			r.P.Kernel().AfterCall(s, r)
			return
		}
		r.complete()
	}
}

// Fire implements sim.Callback: the request in service is done.
func (r *Replica) Fire() {
	r.complete()
	r.serve()
}

// complete answers the request in service.
func (r *Replica) complete() {
	d := r.queue[0].d
	r.queue = r.queue[:copy(r.queue, r.queue[1:])]
	if id := d.U64(0); id != 0 {
		r.served = append(r.served, id)
	}
	r.stats.Completed++
	r.answer(d, wire.StatusOK)
}

// answer replies with the status, acknowledges d unless admission did,
// and takes it back.
func (r *Replica) answer(d *proc.Delivery, st wire.Status) {
	// A failed reply means the caller (or this replica's own Controller)
	// is gone; the retry/failover layers on the client side own recovery.
	d.Reply(WorkSlotCont, []wire.ImmArg{proc.U64Arg(0, uint64(st))}, nil)
	d.Done()
	d.Finish()
}
