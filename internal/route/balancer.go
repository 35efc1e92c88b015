package route

import (
	"encoding/binary"
	"errors"
	"fmt"

	"fractos/internal/proc"
	"fractos/internal/services"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// ErrNoMembers is returned (marked proc.Transient, so the Balancer's
// retry policy re-resolves and tries again) when a service's replica
// set is empty or every member's breaker is open.
var ErrNoMembers = errors.New("route: no routable members")

// errNoMembers is what pick returns, marked once so that a refusal
// allocates nothing.
var errNoMembers = proc.Transient(ErrNoMembers)

// BalancerStats counts the balancer's routing decisions.
type BalancerStats struct {
	Calls     int
	Shed      int // attempts refused with StatusBackpressure
	Failovers int // member-fatal errors that invalidated the cached set
	Resolves  int // ResolveSet round-trips
}

// Balancer is a Process's resolving handle on a replicated service:
// it caches the name's replica set, routes each call through a Policy
// over live load signals, retries transient failures with its Retry
// policy, keeps a per-member circuit breaker (proc.Breaker), and
// re-resolves the set when a member dies underneath it
// (revoked/stale/fenced capabilities classify as member-fatal: the
// cached set is invalidated, and the error is marked proc.Transient so
// that the next attempt routes around the corpse).
//
// A Balancer is bound to one client Process and driven only from that
// Process's tasks (the usual single-kernel cooperative concurrency —
// no locking).
type Balancer struct {
	// Client is the registry handle of the calling Process.
	Client *services.Client
	// Name is the replicated service's registry name.
	Name string
	// Policy routes calls; nil means round-robin.
	Policy Policy
	// Retry is the per-call retry template.
	Retry proc.Retry
	// AttemptTimeout bounds each routed call in virtual time. A replica
	// whose Controller crashes after admitting a request can never
	// reply (its revocation tree died with it, §3.6), so an unbounded
	// wait would hang the caller forever; the timeout converts that
	// silence into proc.ErrCallTimeout, which classifies as transient
	// and fails over. 0 or less means DefaultAttemptTimeout: every
	// attempt is bounded.
	AttemptTimeout sim.Time
	// Record, when set, appends every routed member id to Picks (the
	// determinism property tests' oracle).
	Record bool
	// Picks is the recorded selection sequence (Record).
	Picks []uint64

	set       services.Set
	valid     bool
	resolving *sim.Future[struct{}] // the ResolveSet in flight, if any: its outcome is everyone's
	members   map[uint64]*memberState
	stats     BalancerStats

	// view and kept are pick's scratch: a Policy returns an index and
	// keeps nothing, and pick does not yield between filling and reading
	// them.
	view []MemberView
	kept []services.Member
}

// memberState is what a Balancer knows of one member: its calls in
// flight from here, the instant the work routed to it will be done, and
// its circuit breaker. A deployment has one Balancer per service, so
// due is the member's own FCFS ledger, shifted by the one-way hop: each
// routed call adds its declared work after max(due, now); a shed gives
// the work back; a timed-out or failed call keeps it, an over-estimate
// that ages out by itself.
type memberState struct {
	inflight int
	due      sim.Time
	brk      proc.Breaker
}

// declaredWork is the work a call declares in imm[8:16) (replica.go).
func declaredWork(imms []wire.ImmArg) sim.Time {
	for _, a := range imms {
		if a.Offset <= 8 && int(a.Offset)+len(a.Data) >= 16 {
			return sim.Time(binary.LittleEndian.Uint64(a.Data[8-a.Offset:]))
		}
	}
	return 0
}

// DefaultAttemptTimeout is the per-attempt reply bound when
// AttemptTimeout is zero: generous against queueing (the admission
// bound × a multi-millisecond service time) yet bounded against a dead
// provider.
const DefaultAttemptTimeout = 100 * sim.Time(1000*1000) // 100 ms

// Stats returns the routing counters.
func (b *Balancer) Stats() BalancerStats { return b.stats }

// Invalidate drops the cached replica set; the next call re-resolves.
// Autoscalers call this after changing membership.
func (b *Balancer) Invalidate() { b.valid = false }

// memberFatal reports whether err says the routed member itself is
// gone (capability revoked, stale after a Controller reboot, or never
// installed) — the set must be re-resolved, and the call is worth
// re-routing to a sibling.
func memberFatal(err error) bool {
	return wire.IsStatus(err, wire.StatusRevoked) ||
		wire.IsStatus(err, wire.StatusStale) ||
		wire.IsStatus(err, wire.StatusNoCap)
}

// Call routes one request to the replica set: immediates follow the
// replica.go work layout (the caller owns imm[0:8) request id, imm[8:16)
// the call's work and the service-defined bytes after). It returns the
// service's reply delivery on success.
func (b *Balancer) Call(t *sim.Task, imms []wire.ImmArg, args []proc.Arg) (*proc.Delivery, error) {
	b.stats.Calls++
	var out *proc.Delivery
	err := b.Retry.Do(t, func(t *sim.Task) error {
		err := b.attempt(t, imms, args, &out)
		if err != nil && memberFatal(err) {
			// The member is gone, not the service: route around it.
			return proc.Transient(err)
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("route: %s: %w", b.Name, err)
	}
	return out, nil
}

func (b *Balancer) attempt(t *sim.Task, imms []wire.ImmArg, args []proc.Arg, out **proc.Delivery) error {
	m, ms, err := b.pick(t)
	if err != nil {
		return err
	}
	if !ms.brk.Allow(t.Now()) {
		return proc.ErrCircuitOpen
	}
	to := b.AttemptTimeout
	if to <= 0 {
		to = DefaultAttemptTimeout
	}
	ms.inflight++
	work := declaredWork(imms)
	ms.due = max(ms.due, t.Now()) + work
	d, err := b.Client.P.CallTimeout(t, m.Cap, imms, args, WorkSlotCont, to)
	ms.inflight--
	if err == nil {
		err = d.Err()
	}
	if err == nil {
		ms.brk.Report(t.Now(), true)
		*out = d
		return nil
	}
	// A shed is a healthy member's answer, and so is a permanent
	// application error; transient and member-fatal errors indict it.
	shed := wire.IsStatus(err, wire.StatusBackpressure)
	if shed {
		b.stats.Shed++
		ms.due -= work
	}
	ms.brk.Report(t.Now(), shed || !proc.Retryable(err) && !memberFatal(err))
	if memberFatal(err) || wire.IsStatus(err, wire.StatusNoProc) ||
		errors.Is(err, proc.ErrCallTimeout) {
		b.stats.Failovers++
		b.valid = false
	}
	return err
}

// pick resolves the set if needed, builds the policy view over members
// whose breakers admit traffic, and routes.
func (b *Balancer) pick(t *sim.Task) (services.Member, *memberState, error) {
	if b.members == nil {
		b.members = make(map[uint64]*memberState)
	}
	if b.Policy == nil {
		b.Policy = &RoundRobin{}
	}
	for !b.valid {
		if f := b.resolving; f != nil {
			// One lookup per invalidation, not one per arrival queued at the
			// serial registry while every breaker is open (docs/ROUTING.md).
			if _, err := f.Wait(t); err != nil {
				return services.Member{}, nil, err
			}
			continue // invalidated again meanwhile?
		}
		f := sim.NewFuture[struct{}]()
		b.resolving = f
		// The leader's task ends in here only when the kernel shuts down,
		// which unwinds the waiters too — some before it, and a Future must
		// not wake a finished task: so no deferred f.Fail.
		s, err := b.Client.ResolveSet(t, b.Name)
		b.resolving = nil
		if err != nil {
			f.Fail(err)
			return services.Member{}, nil, err
		}
		b.set, b.valid = s, true
		b.stats.Resolves++
		f.Set(struct{}{})
	}
	view, kept := b.view[:0], b.kept[:0]
	for _, m := range b.set.Members {
		ms := b.members[m.ID]
		if ms == nil {
			ms = &memberState{}
			b.members[m.ID] = ms
		}
		if ms.brk.State(t.Now()) == "open" {
			continue
		}
		view = append(view, MemberView{ID: m.ID, Work: max(ms.due-t.Now(), 0), Load: ms.inflight})
		kept = append(kept, m)
	}
	b.view, b.kept = view, kept
	if len(view) == 0 {
		// Empty set (service not registered yet, or fully fenced) or
		// every breaker open: re-resolve on the next attempt.
		b.valid = false
		return services.Member{}, nil, errNoMembers
	}
	i := b.Policy.Pick(view)
	m := kept[i]
	if b.Record {
		b.Picks = append(b.Picks, m.ID)
	}
	return m, b.members[m.ID], nil
}
