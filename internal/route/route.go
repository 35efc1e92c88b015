// Package route is the replicated-service layer over the name
// registry: client-side routing policies and a resolving balancer
// (Balancer), replica-side queue-depth admission control (Replica),
// and an autoscaler (Autoscaler) that repairs the replica set when
// NodeWatch fences a node.
//
// Everything runs on the deterministic kernel: policies are pure
// functions of the member view plus their own explicit state, the load
// signal is the work each replica has left in virtual time, which the
// balancer keeps from the work it routed, and ties break
// toward the lowest member id — so a fixed seed and policy produce
// byte-identical routing decisions and fabric traces at any GOMAXPROCS
// (pinned by this package's determinism tests).
package route

import "fractos/internal/sim"

// MemberView is one replica as a routing policy sees it: identity, the
// work it has left (the balancer's due instant for it, less now), and
// the client's own calls in flight to it.
type MemberView struct {
	ID   uint64
	Work sim.Time
	Load int
}

// Policy selects a member from a non-empty view. Implementations may
// carry state (round-robin cursors) but must be deterministic: the
// same view sequence produces the same pick sequence.
type Policy interface {
	Pick(view []MemberView) int
}

// RoundRobin cycles through the view in order. With members coming and
// going the cursor is interpreted modulo the current view size, so the
// policy stays well-defined across membership changes.
type RoundRobin struct {
	next uint64
}

// Pick implements Policy.
func (p *RoundRobin) Pick(view []MemberView) int {
	i := int(p.next % uint64(len(view)))
	p.next++
	return i
}

// LeastLoaded picks the member with the least work left, which with
// known job sizes queues like one central FCFS queue. A member with
// maxQueue calls in flight would shed the next, so it goes last, the
// fewest in flight first; then ties break toward the fewest in flight,
// so calls that declare no work still spread, and then the lowest id.
type LeastLoaded struct{}

// Pick implements Policy.
func (LeastLoaded) Pick(view []MemberView) int {
	best := 0
	for i := 1; i < len(view); i++ {
		if less(view[i], view[best]) {
			best = i
		}
	}
	return best
}

func less(a, b MemberView) bool {
	if a.Work != b.Work && (max(a.Load, b.Load) < maxQueue || a.Load == b.Load) {
		return a.Work < b.Work
	}
	if a.Load != b.Load {
		return a.Load < b.Load
	}
	return a.ID < b.ID
}

// ParsePolicy maps a policy name ("rr", "least") to a fresh policy
// instance. Unknown names fall back to round-robin.
func ParsePolicy(name string) Policy {
	if name == "least" {
		return LeastLoaded{}
	}
	return &RoundRobin{}
}
