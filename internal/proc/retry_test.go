package proc_test

// Unit tests for the client-side resilience policies: the backoff
// schedule, error classification, jitter determinism, and the circuit
// breaker's state machine (docs/FAULTS.md).

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

const rms = sim.Time(1000 * 1000) // 1 ms virtual

// inSim runs fn inside a fresh simulation's main task.
func inSim(t *testing.T, fn func(tk *sim.Task)) {
	t.Helper()
	k := sim.New(0)
	done := false
	k.Spawn("retry-test", func(tk *sim.Task) {
		fn(tk)
		done = true
	})
	k.Run()
	k.Shutdown()
	if !done {
		t.Fatal("test task did not complete (deadlock)")
	}
}

func aborted() error { return wire.StatusAborted.Err() }

func TestBackoffSchedule(t *testing.T) {
	us := sim.Time(1000)
	want := []sim.Time{200 * us, 400 * us, 800 * us, 1600 * us, 3200 * us,
		6400 * us, 12800 * us, 20 * rms, 20 * rms}
	for n, w := range want {
		if got := proc.Backoff(n); got != w {
			t.Errorf("Backoff(%d) = %d, want %d", n, got, w)
		}
	}
	if got := proc.Backoff(1000); got != proc.BackoffCap {
		t.Errorf("Backoff(1000) = %d, want the cap %d", got, proc.BackoffCap)
	}
}

func TestRetryable(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{nil, false},
		{wire.StatusAborted.Err(), true},
		{wire.StatusBackpressure.Err(), true},
		{wire.StatusNoProc.Err(), true},
		{proc.ErrCallTimeout, true},
		{proc.ErrCircuitOpen, true},
		{wire.StatusRevoked.Err(), false},
		{wire.StatusPerm.Err(), false},
		{proc.ErrDisconnected, false},
		{proc.ErrForeignCap, false},
		{errors.New("mystery"), false},
		{proc.Transient(wire.StatusRevoked.Err()), true},
		{fmt.Errorf("wrapped: %w", proc.Transient(errors.New("mystery"))), true},
	} {
		if got := proc.Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
	// The mark unwraps: what it marks stays visible to errors.Is and
	// wire.IsStatus.
	revoked := wire.StatusRevoked.Err()
	if err := proc.Transient(revoked); !errors.Is(err, revoked) ||
		!wire.IsStatus(err, wire.StatusRevoked) || err.Error() != revoked.Error() {
		t.Errorf("Transient(%v) = %v hides what it marks", revoked, err)
	}
	if proc.Transient(nil) != nil {
		t.Error("Transient(nil) is not nil")
	}
}

// TestRetryMasksTransientFailures: attempts separated by the
// exponential schedule, each gap within the jitter's spread, until one
// succeeds.
func TestRetryMasksTransientFailures(t *testing.T) {
	inSim(t, func(tk *sim.Task) {
		var at []sim.Time
		err := proc.Retry{Max: 5}.Do(tk, func(st *sim.Task) error {
			at = append(at, st.Now())
			if len(at) < 4 {
				return aborted()
			}
			return nil
		})
		if err != nil {
			t.Fatalf("Do: %v", err)
		}
		if len(at) != 4 {
			t.Fatalf("attempts at %v, want 4 attempts", at)
		}
		for n := 0; n < 3; n++ {
			d := float64(proc.Backoff(n))
			gap := float64(at[n+1] - at[n])
			if gap < d*(1-proc.BackoffJitter/2) || gap > d*(1+proc.BackoffJitter/2) {
				t.Errorf("gap %d = %v, want %v ± %v %%", n, at[n+1]-at[n], proc.Backoff(n), 50*proc.BackoffJitter)
			}
		}
	})
}

func TestRetryPermanentErrorStopsImmediately(t *testing.T) {
	inSim(t, func(tk *sim.Task) {
		calls := 0
		perm := wire.StatusRevoked.Err()
		err := proc.Retry{Max: 5}.Do(tk, func(*sim.Task) error {
			calls++
			return perm
		})
		if !errors.Is(err, perm) || calls != 1 {
			t.Errorf("err=%v calls=%d, want the permanent error after 1 attempt", err, calls)
		}
	})
}

func TestRetryExhaustionReturnsLastError(t *testing.T) {
	inSim(t, func(tk *sim.Task) {
		calls := 0
		err := proc.Retry{Max: 3}.Do(tk, func(*sim.Task) error {
			calls++
			return aborted()
		})
		if calls != 3 {
			t.Errorf("calls = %d, want 3", calls)
		}
		if !wire.IsStatus(err, wire.StatusAborted) {
			t.Errorf("err = %v, want the last StatusAborted", err)
		}
	})
}

// TestRetryJitterDeterministic: equal seeds replay the exact schedule;
// different seeds decorrelate it. Seed 1's schedule is pinned draw for
// draw: a change to the constants or to the draw moves every retrying
// experiment's output.
func TestRetryJitterDeterministic(t *testing.T) {
	schedule := func(seed int64) []sim.Time {
		var at []sim.Time
		inSim(t, func(tk *sim.Task) {
			_ = proc.Retry{Max: 10, Seed: seed}.Do(tk, func(st *sim.Task) error {
				at = append(at, st.Now())
				return aborted()
			})
		})
		return at
	}
	a, b, c := schedule(1), schedule(1), schedule(2)
	want := []sim.Time{0, 186691, 567895, 1296133, 2774205, 6047338,
		12994736, 25602737, 44427354, 63275162}
	if !slices.Equal(a, want) {
		t.Fatalf("seed 1 attempts at %v, want %v", a, want)
	}
	if !slices.Equal(a, b) {
		t.Fatalf("same seed diverged: %v != %v", a, b)
	}
	if slices.Equal(a, c) {
		t.Error("different seeds produced identical jittered schedules")
	}
}

func TestBreakerTransitions(t *testing.T) {
	var b proc.Breaker
	now := sim.Time(0)

	// Closed: failures below the threshold keep it closed.
	for i := 0; i < proc.BreakerThreshold-1; i++ {
		if !b.Allow(now) {
			t.Fatalf("closed breaker refused call %d", i)
		}
		b.Report(now, false)
	}
	if st := b.State(now); st != "closed" {
		t.Fatalf("state = %s after %d failures, want closed", st, proc.BreakerThreshold-1)
	}
	// The threshold's consecutive failure opens it.
	b.Allow(now)
	b.Report(now, false)
	if st := b.State(now); st != "open" {
		t.Fatalf("state = %s after threshold, want open", st)
	}
	if b.Allow(now + proc.BreakerCooldown - 1) {
		t.Fatal("open breaker admitted a call inside the cooldown")
	}

	// Cooldown elapsed: one half-open probe is admitted, a second is not.
	now += proc.BreakerCooldown
	if st := b.State(now); st != "half-open" {
		t.Fatalf("state = %s after cooldown, want half-open", st)
	}
	if !b.Allow(now) {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.Allow(now) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// Probe fails: re-open for another cooldown.
	b.Report(now, false)
	if st := b.State(now); st != "open" {
		t.Fatalf("state = %s after failed probe, want open", st)
	}

	// Next probe succeeds: closed again, failure count reset.
	now += proc.BreakerCooldown
	if !b.Allow(now) {
		t.Fatal("re-opened breaker refused the second probe")
	}
	b.Report(now, true)
	if st := b.State(now); st != "closed" {
		t.Fatalf("state = %s after successful probe, want closed", st)
	}
	if !b.Allow(now) {
		t.Fatal("closed breaker refused a call")
	}
	b.Report(now, true)
}
