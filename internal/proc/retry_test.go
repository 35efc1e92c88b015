package proc_test

// Unit tests for the client-side resilience policies: backoff
// schedules, error classification, deadlines, jitter determinism, and
// the circuit breaker's state machine (docs/FAULTS.md).

import (
	"errors"
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
	r := proc.Retry{Base: rms, Cap: 8 * rms}
	want := []sim.Time{rms, 2 * rms, 4 * rms, 8 * rms, 8 * rms, 8 * rms}
	for n, w := range want {
		if got := r.Backoff(n); got != w {
			t.Errorf("Backoff(%d) = %d, want %d", n, got, w)
		}
	}
	// Zero fields fall back to the documented defaults.
	z := proc.Retry{}
	if got := z.Backoff(0); got != proc.DefaultBackoffBase {
		t.Errorf("zero-value Backoff(0) = %d, want %d", got, proc.DefaultBackoffBase)
	}
	if got := z.Backoff(1000); got != proc.DefaultBackoffCap {
		t.Errorf("zero-value Backoff(1000) = %d, want cap %d", got, proc.DefaultBackoffCap)
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
		{wire.StatusRevoked.Err(), false},
		{wire.StatusPerm.Err(), false},
		{proc.ErrDisconnected, false},
		{proc.ErrForeignCap, false},
		{errors.New("mystery"), false},
	} {
		if got := proc.Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestRetryMasksTransientFailures: attempts separated by the exact
// exponential schedule until one succeeds.
func TestRetryMasksTransientFailures(t *testing.T) {
	inSim(t, func(tk *sim.Task) {
		var at []sim.Time
		err := proc.Retry{Max: 5, Base: rms, Cap: 8 * rms}.Do(tk, func(st *sim.Task) error {
			at = append(at, st.Now())
			if len(at) < 4 {
				return aborted()
			}
			return nil
		})
		if err != nil {
			t.Fatalf("Do: %v", err)
		}
		// Gaps: Base, 2·Base, 4·Base (no jitter configured).
		want := []sim.Time{0, rms, 3 * rms, 7 * rms}
		if len(at) != len(want) {
			t.Fatalf("attempts at %v, want %d attempts", at, len(want))
		}
		for i := range want {
			if at[i] != want[i] {
				t.Errorf("attempt %d at %d, want %d", i, at[i], want[i])
			}
		}
	})
}

func TestRetryPermanentErrorStopsImmediately(t *testing.T) {
	inSim(t, func(tk *sim.Task) {
		calls := 0
		perm := wire.StatusRevoked.Err()
		err := proc.Retry{Max: 5, Base: rms}.Do(tk, func(*sim.Task) error {
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
		err := proc.Retry{Max: 3, Base: rms}.Do(tk, func(*sim.Task) error {
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
// different seeds decorrelate it.
func TestRetryJitterDeterministic(t *testing.T) {
	schedule := func(seed int64) []sim.Time {
		var at []sim.Time
		inSim(t, func(tk *sim.Task) {
			_ = proc.Retry{Max: 6, Base: rms, Jitter: 0.5, Seed: seed}.Do(tk, func(st *sim.Task) error {
				at = append(at, st.Now())
				return aborted()
			})
		})
		return at
	}
	a, b, c := schedule(1), schedule(1), schedule(2)
	if len(a) != 6 {
		t.Fatalf("got %d attempts, want 6", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at attempt %d: %d != %d", i, a[i], b[i])
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical jittered schedules")
	}
}

func TestBreakerTransitions(t *testing.T) {
	b := &proc.Breaker{Threshold: 3, Cooldown: 10 * rms}
	now := sim.Time(0)

	// Closed: failures below the threshold keep it closed.
	for i := 0; i < 2; i++ {
		if !b.Allow(now) {
			t.Fatalf("closed breaker refused call %d", i)
		}
		b.Report(now, false)
	}
	if st := b.State(now); st != "closed" {
		t.Fatalf("state = %s after 2 failures, want closed", st)
	}
	// Third consecutive failure opens it.
	b.Allow(now)
	b.Report(now, false)
	if st := b.State(now); st != "open" {
		t.Fatalf("state = %s after threshold, want open", st)
	}
	if b.Allow(now + 5*rms) {
		t.Fatal("open breaker admitted a call inside the cooldown")
	}

	// Cooldown elapsed: one half-open probe is admitted, a second is not.
	now += 10 * rms
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
	now += 10 * rms
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

// TestRetryBreakerFailsFast: once the shared breaker opens, Do returns
// ErrCircuitOpen without issuing attempts; after the cooldown a
// successful probe closes it again.
func TestRetryBreakerFailsFast(t *testing.T) {
	inSim(t, func(tk *sim.Task) {
		br := &proc.Breaker{Threshold: 2, Cooldown: 10 * rms}
		fail := func(*sim.Task) error { return aborted() }

		// Two failing attempts open the circuit mid-Do.
		err := proc.Retry{Max: 4, Base: rms, Breaker: br}.Do(tk, fail)
		if !errors.Is(err, proc.ErrCircuitOpen) {
			t.Fatalf("err = %v, want ErrCircuitOpen once the breaker opens", err)
		}

		// While open, calls fail fast with zero attempts.
		calls := 0
		err = proc.Retry{Max: 4, Base: rms, Breaker: br}.Do(tk, func(*sim.Task) error {
			calls++
			return nil
		})
		if !errors.Is(err, proc.ErrCircuitOpen) || calls != 0 {
			t.Fatalf("err=%v calls=%d, want fail-fast with no attempts", err, calls)
		}

		// After the cooldown the half-open probe runs and closes it.
		tk.Sleep(10 * rms)
		err = proc.Retry{Max: 1, Breaker: br}.Do(tk, func(*sim.Task) error { return nil })
		if err != nil {
			t.Fatalf("probe Do: %v", err)
		}
		if st := br.State(tk.Now()); st != "closed" {
			t.Fatalf("state = %s after successful probe, want closed", st)
		}
	})
}
