package core

import (
	"time"

	"fractos/internal/cap"
	"fractos/internal/fabric"
	"fractos/internal/sim"
)

// Retransmission-timer constants (docs/FAULTS.md § 2 has the sweep that
// chose the ceiling). They are properties of the protocol, not of a
// deployment: the estimator adapts to the fabric below the ceiling.
const (
	// rtoCeiling caps the exponential backoff: during an outage every
	// pending call probes the peer once per ceiling, so an outage
	// shorter than the budget is over at most one ceiling after it
	// heals. It must stay above any legitimate round trip — a peer
	// slower than this is resent to on every probe and, by Karn's rule,
	// never sampled.
	rtoCeiling = 2 * sim.Time(time.Millisecond)
	// rtoInitial is the timeout towards a peer with no sample yet (first
	// contact, or just after its epoch changed): conservative, because
	// nothing is known about the path.
	rtoInitial = sim.Time(time.Millisecond)
)

// rttEstimator is the RFC 6298 smoothed round-trip estimator towards
// one peer Controller. An inter-Controller reply is produced
// run-to-completion by the peer's handler, so a sample is fabric time
// plus Controller queueing on both sides and never application time —
// which is what makes a timeout a few round trips long safe.
type rttEstimator struct {
	srtt   sim.Time // smoothed round trip; 0 = no sample yet
	rttvar sim.Time // smoothed mean deviation
	// backoff is the other half of Karn's algorithm: the timeout a
	// resend to this peer backed off to, kept for the calls that follow
	// until one of them yields a sample. Without it a round trip that
	// steps above the estimate is never measured again — every call
	// would be resent before its reply, and resent calls do not sample.
	backoff sim.Time
}

// sample folds in one measured round trip (α = 1/8, β = 1/4) and ends
// any backoff. The caller applies Karn's rule: a call that was
// retransmitted has no unambiguous round trip and contributes nothing.
func (e *rttEstimator) sample(r sim.Time) {
	e.backoff = 0
	if e.srtt == 0 {
		e.srtt, e.rttvar = r, r/2
		return
	}
	dev := e.srtt - r
	if dev < 0 {
		dev = -dev
	}
	e.rttvar += (dev - e.rttvar) / 4
	e.srtt += (r - e.srtt) / 8
}

// backOff records that a resend to this peer backed off to rto.
func (e *rttEstimator) backOff(rto sim.Time) { e.backoff = max(e.backoff, rto) }

// rto is the timeout of a first send: SRTT + 4·RTTVAR, but never under
// 2·SRTT and never over rtoCeiling, or the backed-off timeout while that
// is longer. The lower bound is the path's own: a frame is declared lost
// only after one whole extra round trip, which covers delay the variance
// term cannot see coming — under the chaos suites' 20 µs of per-frame
// jitter, SRTT already holds the mean jitter. docs/FAULTS.md § 2 has
// the factor sweep.
func (e *rttEstimator) rto() sim.Time {
	rto := rtoInitial
	if e.srtt != 0 {
		rto = min(max(e.srtt+4*e.rttvar, 2*e.srtt), rtoCeiling)
	}
	return max(rto, e.backoff)
}

// peerState is what a Controller knows about one peer Controller: where
// it is attached, the newest epoch it has been observed under, the
// round-trip estimate that times resends to it and the replies sent to it.
type peerState struct {
	ep    fabric.EndpointID
	epoch cap.Epoch
	rtt   rttEstimator
	dedup dedupCache
}
