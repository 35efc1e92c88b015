// Client-side resilience: a retry policy, its error classification,
// and a circuit breaker.
//
// The Controller RPC layer (core) already retransmits its own
// inter-Controller frames over a lossy fabric, but the *application*
// still observes failures: calls resolved StatusAborted when a
// retransmission window is exhausted or a Controller crashes, providers
// that vanished (StatusNoProc), congestion refusals
// (StatusBackpressure). This file is the client's answer — the policy
// layer the paper leaves to applications ("failure amplification" in
// disaggregated systems is an application-visible hazard).
//
// Determinism: backoff jitter is drawn from a private rand.Rand seeded
// by Retry.Seed, never from the kernel RNG, so a workload built from
// per-request seeds replays byte-identically. Backoffs and cooldowns
// are virtual time.
//
// Liveness rule: Do never abandons an in-flight attempt. Operations
// hold resources (semaphore permits, pooled slots) released on their
// own return path; killing the task would leak them. Each attempt's
// own completion is guaranteed by the layers below (every lower-level
// wait resolves or aborts — see docs/FAULTS.md).
package proc

import (
	"errors"
	"math/rand"

	"fractos/internal/sim"
	"fractos/internal/wire"
)

// ErrCircuitOpen is what a caller whose circuit breaker refuses an
// attempt returns in its place. It classifies as transient: another
// attempt, after a backoff or to another member, may be admitted.
var ErrCircuitOpen = errors.New("proc: circuit breaker open")

// Transient marks err as worth another attempt whatever its own
// classification, for a caller that knows more than Retryable does (a
// balancer whose member died can route around it). The mark unwraps:
// errors.Is and errors.As see err through it. Transient(nil) is nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err}
}

// transientError reads as the error it marks.
type transientError struct{ error }

func (e *transientError) Unwrap() error { return e.error }

// Retryable classifies an error: true means the failure is transient
// infrastructure (lost frames, aborted RPCs, congestion, a provider
// that may be redeployed, an open breaker, an error marked Transient)
// and the operation is worth re-issuing; false means the capability
// world changed underneath the caller (revoked, stale epoch,
// permission) or the argument was wrong — retrying can never succeed
// and the application must re-acquire its capabilities instead.
// Unknown errors are conservatively permanent.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	for e := err; e != nil; e = errors.Unwrap(e) {
		if _, ok := e.(*transientError); ok {
			return true
		}
	}
	if errors.Is(err, ErrDisconnected) || errors.Is(err, ErrForeignCap) {
		// Our own Controller channel (or handle) is gone: this Process
		// is dead from the system's point of view; retrying from
		// inside it cannot help.
		return false
	}
	if errors.Is(err, ErrCallTimeout) || errors.Is(err, ErrCircuitOpen) {
		// The provider sat on the request past the caller's bound —
		// typically because its Controller died after admitting it — or
		// the breaker metering it is open. Another replica (or the
		// rebooted node) can serve a re-issue.
		return true
	}
	var se *wire.StatusError
	if errors.As(err, &se) {
		switch se.Status {
		case wire.StatusAborted, wire.StatusBackpressure, wire.StatusNoProc:
			return true
		}
		return false
	}
	return false
}

// Retry is a bounded-exponential-backoff retry policy. The zero value
// issues exactly one attempt (no retries); fill in Max to enable
// retries. Policies are values: build one per call site (or per
// request, varying Seed) and invoke Do.
type Retry struct {
	// Max is the maximum number of attempts (first try included).
	// 0 or 1 means a single attempt.
	Max int
	// Seed seeds the private jitter RNG; use a per-request value for
	// decorrelated but reproducible schedules.
	Seed int64
}

// The backoff schedule: the delay before retry n is min(BackoffBase·2ⁿ,
// BackoffCap), spread uniformly over [d·(1-BackoffJitter/2),
// d·(1+BackoffJitter/2)] to decorrelate colliding clients.
const (
	BackoffBase   = 200 * sim.Time(1000)     // 200 µs
	BackoffCap    = 20 * sim.Time(1000*1000) // 20 ms
	BackoffJitter = 0.2
)

// Backoff returns the pre-jitter delay before retry number n (n=0 is
// the delay between the first failure and the second attempt):
// min(BackoffBase·2ⁿ, BackoffCap). Pure, for tests and inspection.
func Backoff(n int) sim.Time {
	d := BackoffBase
	for i := 0; i < n && d < BackoffCap; i++ {
		d <<= 1
	}
	return min(d, BackoffCap)
}

// Do runs op under the policy: attempts are issued until one succeeds,
// an error classifies as permanent (Retryable), or attempts are
// exhausted. It returns nil on success and the last error otherwise.
func (r Retry) Do(t *sim.Task, op func(*sim.Task) error) error {
	var rng *rand.Rand // created at the first retry: a first success never draws
	for attempt := 1; ; attempt++ {
		err := op(t)
		if err == nil || attempt >= r.Max || !Retryable(err) {
			return err
		}
		if rng == nil {
			rng = rand.New(rand.NewSource(r.Seed + 1))
		}
		d := float64(Backoff(attempt - 1))
		spread := d * BackoffJitter
		t.Sleep(sim.Time(d - spread/2 + rng.Float64()*spread))
	}
}

// Breaker is a small per-dependency circuit breaker
// (closed → open → half-open → closed). While closed it counts
// consecutive retryable failures; at BreakerThreshold it opens and
// fails calls fast for BreakerCooldown; then one half-open probe is
// admitted — success closes the circuit, failure re-opens it for
// another cooldown. Success at any point resets the failure count. The
// zero value is closed.
//
// All timing is virtual; the breaker is a plain struct driven by the
// simulation's single-threaded event loop and needs no locking.
type Breaker struct {
	state    breakerState
	failures int
	openedAt sim.Time
	probing  bool // half-open: one probe in flight
}

type breakerState uint8

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// The breaker's trip point and how long it stays open.
const (
	BreakerThreshold = 5
	BreakerCooldown  = 10 * sim.Time(1000*1000) // 10 ms
)

// State returns the breaker's state as a string (for logs and tests).
func (b *Breaker) State(now sim.Time) string {
	switch b.state {
	case breakerOpen:
		if now-b.openedAt >= BreakerCooldown {
			return "half-open"
		}
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// Allow reports whether a call may be issued now. In the open state it
// transitions to half-open once the cooldown has elapsed and admits a
// single probe.
func (b *Breaker) Allow(now sim.Time) bool {
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now-b.openedAt < BreakerCooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Report records the outcome of a call admitted by Allow. ok should be
// true for success or a permanent (non-infrastructure) error — only
// retryable failures indicate an unhealthy dependency.
func (b *Breaker) Report(now sim.Time, ok bool) {
	switch b.state {
	case breakerClosed:
		if ok {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= BreakerThreshold {
			b.state = breakerOpen
			b.openedAt = now
		}
	case breakerHalfOpen:
		b.probing = false
		if ok {
			b.state = breakerClosed
			b.failures = 0
			return
		}
		b.state = breakerOpen
		b.openedAt = now
	case breakerOpen:
		// A straggler from before the circuit opened; ignore.
	}
}
