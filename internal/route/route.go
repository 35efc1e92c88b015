// Package route is the replicated-service layer over the name
// registry: client-side routing policies and a resolving balancer
// (Balancer), replica-side queue-depth admission control (Replica),
// and an autoscaler (Autoscaler) that repairs the replica set when
// NodeWatch fences a node.
//
// Everything runs on the deterministic kernel: policies are pure
// functions of the member view plus their own explicit state, load
// signals are virtual-time queue depths, and ties break toward the
// lowest member id — so a fixed seed and policy produce byte-identical
// routing decisions and fabric traces at any GOMAXPROCS (pinned by
// this package's determinism tests).
package route

// MemberView is one replica as a routing policy sees it: identity and
// the client's current load estimate for it (its own in-flight calls
// plus the queue depth the replica piggybacked on its last reply).
type MemberView struct {
	ID   uint64
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

// LeastLoaded picks the member with the smallest load estimate
// (join-shortest-queue on client-observed signals), breaking ties
// toward the lowest member id.
type LeastLoaded struct{}

// Pick implements Policy.
func (LeastLoaded) Pick(view []MemberView) int {
	best := 0
	for i := 1; i < len(view); i++ {
		if view[i].Load < view[best].Load ||
			(view[i].Load == view[best].Load && view[i].ID < view[best].ID) {
			best = i
		}
	}
	return best
}

// ParsePolicy maps a policy name ("rr", "least") to a fresh policy
// instance. Unknown names fall back to round-robin.
func ParsePolicy(name string) Policy {
	if name == "least" {
		return LeastLoaded{}
	}
	return &RoundRobin{}
}
