// Client-side resilience: retry policies, error classification, and a
// circuit breaker.
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

// ErrCircuitOpen is returned by Retry.Do (without issuing an attempt)
// while the circuit breaker is open.
var ErrCircuitOpen = errors.New("proc: circuit breaker open")

// Retryable classifies an error: true means the failure is transient
// infrastructure (lost frames, aborted RPCs, congestion, a provider
// that may be redeployed) and the operation is worth re-issuing;
// false means the capability world changed underneath the caller
// (revoked, stale epoch, permission) or the argument was wrong —
// retrying can never succeed and the application must re-acquire its
// capabilities instead. Unknown errors are conservatively permanent.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrDisconnected) || errors.Is(err, ErrForeignCap) {
		// Our own Controller channel (or handle) is gone: this Process
		// is dead from the system's point of view; retrying from
		// inside it cannot help.
		return false
	}
	if errors.Is(err, ErrCallTimeout) {
		// The provider sat on the request past the caller's bound —
		// typically because its Controller died after admitting it.
		// Another replica (or the rebooted node) can serve a re-issue.
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
	// Base is the delay before the first retry; it doubles on every
	// subsequent retry. 0 means DefaultBackoffBase.
	Base sim.Time
	// Cap bounds a single backoff delay. 0 means DefaultBackoffCap.
	Cap sim.Time
	// Jitter spreads each delay uniformly over
	// [d·(1-Jitter/2), d·(1+Jitter/2)] to decorrelate colliding
	// clients. 0 disables jitter; 1 is full ±50 % spread.
	Jitter float64
	// Seed seeds the private jitter RNG; use a per-request value for
	// decorrelated but reproducible schedules.
	Seed int64
	// Classify overrides Retryable for deciding whether to re-issue
	// after an error. nil means Retryable.
	Classify func(error) bool
	// Breaker, when non-nil, is consulted before and informed after
	// every attempt. Share one *Breaker across the calls that target
	// the same dependency.
	Breaker *Breaker
}

// Defaults for Retry's zero fields.
const (
	DefaultBackoffBase = 200 * sim.Time(1000)     // 200 µs
	DefaultBackoffCap  = 20 * sim.Time(1000*1000) // 20 ms
)

// Backoff returns the pre-jitter delay before retry number n (n=0 is
// the delay between the first failure and the second attempt):
// min(Base·2ⁿ, Cap). Pure, for tests and inspection.
func (r Retry) Backoff(n int) sim.Time {
	base, cp := r.Base, r.Cap
	if base <= 0 {
		base = DefaultBackoffBase
	}
	if cp <= 0 {
		cp = DefaultBackoffCap
	}
	d := base
	for i := 0; i < n; i++ {
		if d >= cp {
			return cp
		}
		d <<= 1
	}
	if d > cp {
		d = cp
	}
	return d
}

// Do runs op under the policy: attempts are issued until one succeeds,
// an error classifies as permanent, attempts are exhausted, or the
// breaker opens. It returns nil on success, the last error on
// exhaustion or permanent failure, and ErrCircuitOpen when the breaker
// refuses.
func (r Retry) Do(t *sim.Task, op func(*sim.Task) error) error {
	max := r.Max
	if max < 1 {
		max = 1
	}
	classify := r.Classify
	if classify == nil {
		classify = Retryable
	}
	var rng *rand.Rand // lazily created: zero-jitter policies never draw
	var lastErr error
	for attempt := 0; attempt < max; attempt++ {
		if r.Breaker != nil && !r.Breaker.Allow(t.Now()) {
			return ErrCircuitOpen
		}
		err := op(t)
		if r.Breaker != nil {
			r.Breaker.Report(t.Now(), err == nil || !classify(err))
		}
		if err == nil {
			return nil
		}
		lastErr = err
		if !classify(err) {
			return err
		}
		if attempt == max-1 {
			break
		}
		d := r.Backoff(attempt)
		if r.Jitter > 0 {
			if rng == nil {
				rng = rand.New(rand.NewSource(r.Seed + 1))
			}
			spread := float64(d) * r.Jitter
			d = sim.Time(float64(d) - spread/2 + rng.Float64()*spread)
			if d < 0 {
				d = 0
			}
		}
		t.Sleep(d)
	}
	return lastErr
}

// Breaker is a small per-dependency circuit breaker
// (closed → open → half-open → closed). While closed it counts
// consecutive retryable failures; at Threshold it opens and fails
// calls fast for Cooldown; then one half-open probe is admitted —
// success closes the circuit, failure re-opens it for another
// Cooldown. Success at any point resets the failure count.
//
// All timing is virtual; the breaker is a plain struct driven by the
// simulation's single-threaded event loop and needs no locking.
type Breaker struct {
	// Threshold is the consecutive-failure count that opens the
	// circuit. 0 means DefaultBreakerThreshold.
	Threshold int
	// Cooldown is how long the circuit stays open before admitting a
	// half-open probe. 0 means DefaultBreakerCooldown.
	Cooldown sim.Time

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

// Defaults for Breaker's zero fields.
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 10 * sim.Time(1000*1000) // 10 ms
)

func (b *Breaker) threshold() int {
	if b.Threshold <= 0 {
		return DefaultBreakerThreshold
	}
	return b.Threshold
}

func (b *Breaker) cooldown() sim.Time {
	if b.Cooldown <= 0 {
		return DefaultBreakerCooldown
	}
	return b.Cooldown
}

// State returns the breaker's state as a string (for logs and tests).
func (b *Breaker) State(now sim.Time) string {
	switch b.state {
	case breakerOpen:
		if now-b.openedAt >= b.cooldown() {
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
		if now-b.openedAt < b.cooldown() {
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
		if b.failures >= b.threshold() {
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
