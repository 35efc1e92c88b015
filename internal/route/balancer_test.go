package route

import (
	"slices"
	"testing"

	"fractos/internal/proc"
	"fractos/internal/services"
	"fractos/internal/sim"
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
