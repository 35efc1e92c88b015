package route_test

import (
	"fmt"
	"testing"

	"fractos/internal/services"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/testbed/stacks"
)

// TestAutoscalerSoakNodeFlap is the replicated-service soak: a routed
// service under sustained load loses a node mid-run (heartbeat fences
// it, the registry prunes its member, the autoscaler spawns a
// replacement on a healthy node). Afterwards the registry's membership
// must equal the autoscaler's live instances, the repair MTTR must be
// recorded in virtual time, every request must have completed, and no
// request id may have been executed by more than one surviving replica
// (replica-side dedup absorbs same-replica retries; failover re-issues
// land exactly once because a corpse's executions died with its node).
func TestAutoscalerSoakNodeFlap(t *testing.T) {
	s := &stacks.Routed{Replicas: 2, Repair: true, Nodes: []int{1, 2, 3}, AttemptTimeout: 5 * ms}
	spec := testbed.Spec{
		Nodes:     4,
		Heartbeat: &services.WatchConfig{Every: 1 * ms, Suspect: 2},
		Services:  []testbed.Service{s},
	}
	const requests = 90
	crashedNode := 1
	testbed.RunT(t, spec, func(tk *sim.Task, d *testbed.Deployment) {
		s.B.Retry.Max = 12
		// Fence the first replica's node mid-load.
		d.K().After(tk.Now()+6*ms, func() { d.Cl.CtrlFor(crashedNode).Crash() })

		errs := 0
		var wg sim.WaitGroup
		wg.Add(3)
		for w := 0; w < 3; w++ {
			w := w
			tk.Kernel().Spawn(fmt.Sprintf("soak-%d", w), func(wt *sim.Task) {
				for i := w; i < requests; i += 3 {
					if err := s.Do(wt, uint64(i+1), 300*us); err != nil {
						errs++
						t.Errorf("request %d: %v", i+1, err)
					}
				}
				wg.Done()
			})
		}
		wg.Wait(tk)
		if errs != 0 {
			t.Fatalf("%d of %d requests failed", errs, requests)
		}

		// Membership convergence: give the repair a beat, then the
		// registry's set must be exactly the autoscaler's live instances,
		// none of them on the fenced node.
		tk.Sleep(10 * ms)
		set, err := s.Client.ResolveSet(tk, "svc.work")
		if err != nil {
			t.Fatalf("resolve-set: %v", err)
		}
		live := s.Scaler.Instances()
		if len(set.Members) != len(live) {
			t.Fatalf("registry has %d members, autoscaler has %d instances:\n set: %+v",
				len(set.Members), len(live), set.Members)
		}
		want := make(map[uint64]bool, len(live))
		for _, in := range live {
			if in.Node == crashedNode {
				t.Errorf("live instance still placed on fenced node %d", crashedNode)
			}
			want[in.MemberID] = true
		}
		for _, m := range set.Members {
			if !want[m.ID] {
				t.Errorf("registry member %d not among live instances", m.ID)
			}
			if m.Node == crashedNode {
				t.Errorf("registry still lists member %d on fenced node", m.ID)
			}
		}
	})

	// The flap must have been observed and repaired, with MTTR measured
	// in virtual time.
	var lost, repaired int
	for _, e := range s.Scaler.Events() {
		switch e.Kind {
		case "lost":
			lost++
		case "repair":
			repaired++
		}
	}
	if lost == 0 || repaired == 0 {
		t.Fatalf("scale events = %v, want at least one lost and one repair", s.Scaler.Events())
	}
	if mttr := s.Scaler.MTTR(); mttr <= 0 {
		t.Errorf("MTTR = %d, want > 0 (virtual fence-to-replacement latency)", mttr)
	} else {
		t.Logf("membership MTTR: %.3f ms virtual", float64(mttr)/1e6)
	}

	// Double-delivery oracle: across every replica that survived (the
	// fenced node's executions are lost by definition — its effects died
	// with the node), each request id ran at most once.
	seen := make(map[uint64]int)
	for _, in := range s.AllInstances {
		if in.Node == crashedNode {
			continue
		}
		for _, id := range in.R.Served() {
			seen[id]++
			if seen[id] > 1 {
				t.Errorf("request %d executed %d times across surviving replicas", id, seen[id])
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("no requests served by surviving replicas")
	}
}
