package route

import (
	"errors"
	"slices"
	"testing"

	"fractos/internal/proc"
	"fractos/internal/services"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// TestBalancerBreakerSkipsOpenMember: a member whose breaker has seen
// proc.BreakerThreshold failures in a row drops out of pick's view for
// proc.BreakerCooldown, while its sibling takes every pick; then it is
// readmitted for one half-open probe (a second attempt meanwhile is
// refused), and the probe's success closes its breaker.
func TestBalancerBreakerSkipsOpenMember(t *testing.T) {
	k := sim.New(0)
	done := false
	k.Spawn("pick", func(tk *sim.Task) {
		defer func() { done = true }()
		b := &Balancer{Policy: &RoundRobin{}}
		b.set, b.valid = services.Set{Members: []services.Member{{ID: 1}, {ID: 2}}}, true
		picks := func(n int) []uint64 {
			var ids []uint64
			for range n {
				m, _, err := b.pick(tk)
				if err != nil {
					t.Errorf("pick: %v", err)
					return nil
				}
				ids = append(ids, m.ID)
			}
			return ids
		}

		for fails := 0; fails < proc.BreakerThreshold; {
			m, ms, err := b.pick(tk)
			if err != nil {
				t.Errorf("pick: %v", err)
				return
			}
			if m.ID == 1 && ms.brk.Allow(tk.Now()) {
				ms.brk.Report(tk.Now(), false)
				fails++
			}
		}
		opened := tk.Now()
		if got := picks(4); !slices.Equal(got, []uint64{2, 2, 2, 2}) {
			t.Errorf("picks with member 1's breaker open = %v, want member 2 only", got)
		}
		tk.Sleep(proc.BreakerCooldown - 1)
		if got := picks(4); !slices.Equal(got, []uint64{2, 2, 2, 2}) {
			t.Errorf("picks 1 ns before the cooldown ends = %v, want member 2 only", got)
		}

		tk.Sleep(1)
		var probe *memberState
		for probe == nil {
			m, ms, err := b.pick(tk)
			if err != nil {
				t.Errorf("pick: %v", err)
				return
			}
			if m.ID == 1 {
				probe = ms
			}
		}
		if tk.Now()-opened != proc.BreakerCooldown || !probe.brk.Allow(tk.Now()) {
			t.Errorf("member 1 not readmitted for a probe %v after its breaker opened", proc.BreakerCooldown)
		}
		if probe.brk.Allow(tk.Now()) {
			t.Error("member 1 admitted a second attempt while its probe is in flight")
		}
		probe.brk.Report(tk.Now(), true)
		if st := probe.brk.State(tk.Now()); st != "closed" {
			t.Errorf("member 1's breaker is %s after a successful probe, want closed", st)
		}
		if got := picks(4); !slices.Equal(got, []uint64{1, 2, 1, 2}) && !slices.Equal(got, []uint64{2, 1, 2, 1}) {
			t.Errorf("picks after the probe = %v, want both members in turn", got)
		}
	})
	k.Run()
	k.Shutdown()
	if !done {
		t.Fatal("pick task did not complete")
	}
}

// TestBalancerAttemptRefusedByBreakers: an attempt fails fast, sending
// nothing, with ErrNoMembers while every member's breaker is open (and
// the cached set is invalidated), and with proc.ErrCircuitOpen while its
// member's one half-open probe is out.
func TestBalancerAttemptRefusedByBreakers(t *testing.T) {
	k := sim.New(0)
	done := false
	k.Spawn("attempt", func(tk *sim.Task) {
		defer func() { done = true }()
		b := &Balancer{}
		b.set, b.valid = services.Set{Members: []services.Member{{ID: 1}}}, true
		_, ms, err := b.pick(tk)
		if err != nil {
			t.Errorf("pick: %v", err)
			return
		}
		for range proc.BreakerThreshold {
			ms.brk.Report(tk.Now(), false)
		}
		var out *proc.Delivery
		if err := b.attempt(tk, nil, nil, &out); !errors.Is(err, ErrNoMembers) || b.valid {
			t.Errorf("attempt with every breaker open: %v, set valid %v; want ErrNoMembers and the set invalidated", err, b.valid)
		}
		b.valid = true
		tk.Sleep(proc.BreakerCooldown)
		if !ms.brk.Allow(tk.Now()) {
			t.Errorf("no probe admitted %v after the breaker opened", proc.BreakerCooldown)
		}
		if err := b.attempt(tk, nil, nil, &out); !errors.Is(err, proc.ErrCircuitOpen) {
			t.Errorf("attempt while the probe is out: %v, want %v", err, proc.ErrCircuitOpen)
		}
	})
	k.Run()
	k.Shutdown()
	if !done {
		t.Fatal("attempt task did not complete")
	}
}

// TestDeclaredWork: a call's work is the imm[8:16) it declares, wherever
// the immediate that covers those bytes starts; a call that covers none
// declares none. Reading it allocates nothing.
func TestDeclaredWork(t *testing.T) {
	wide := make([]byte, 16)
	wide[8] = 7
	for _, c := range []struct {
		name string
		imms []wire.ImmArg
		want sim.Time
	}{
		{"the route layout", []wire.ImmArg{proc.U64Arg(0, 5), proc.U64Arg(8, 400_000)}, 400_000},
		{"one immediate over [0:16)", []wire.ImmArg{proc.BytesArg(0, wide)}, 7},
		{"an id alone", []wire.ImmArg{proc.U64Arg(0, 5)}, 0},
		{"none", nil, 0},
	} {
		if got := declaredWork(c.imms); got != c.want {
			t.Errorf("%s: declared work %v, want %v", c.name, got, c.want)
		}
	}
	imms := []wire.ImmArg{proc.U64Arg(0, 5), proc.U64Arg(8, 400_000)}
	if n := testing.AllocsPerRun(100, func() { declaredWork(imms) }); n != 0 {
		t.Errorf("declaredWork allocates %v objects, want 0", n)
	}
}
