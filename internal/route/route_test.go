// Integration tests for the replicated-service layer: admission
// control, member failover, and the routing determinism matrix. They
// live in an external test package because they drive the route stack
// through testbed/stacks (which imports route).
package route_test

import (
	"cmp"
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"fractos/internal/fabric"
	"fractos/internal/load"
	"fractos/internal/proc"
	"fractos/internal/route"
	"fractos/internal/services"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/testbed/stacks"
	"fractos/internal/wire"
)

const ms = sim.Time(1000 * 1000)
const us = sim.Time(1000)

// driveConcurrent issues count calls from width concurrent tasks with
// unique non-zero request ids and a service time that is a fixed
// function of the id. Returns the number of failed calls.
func driveConcurrent(tk *sim.Task, s *stacks.Routed, width, count int) int {
	errs := 0
	var wg sim.WaitGroup
	wg.Add(width)
	for w := 0; w < width; w++ {
		w := w
		tk.Kernel().Spawn(fmt.Sprintf("driver-%d", w), func(t *sim.Task) {
			for i := w; i < count; i += width {
				id := uint64(i + 1)
				service := sim.Time((id*7)%5+1) * 100 * us
				if err := s.Do(t, id, service); err != nil {
					errs++
				}
			}
			wg.Done()
		})
	}
	wg.Wait(tk)
	return errs
}

// TestAdmissionControlSheds: one replica against a concurrent burst
// wider than its admission bound (16). The overflow must be refused
// with wire.StatusBackpressure (retryable — proc.Retryable classifies a
// registry/replica shed with no special case), the queue must never
// exceed its bound, and with enough retry budget every request
// eventually lands.
func TestAdmissionControlSheds(t *testing.T) {
	const bound, width, calls = 16, 24, 48
	s := &stacks.Routed{Replicas: 1, Nodes: []int{1}}
	testbed.RunT(t, testbed.Spec{Nodes: 2, Services: []testbed.Service{s}},
		func(tk *sim.Task, d *testbed.Deployment) {
			s.B.Retry = proc.Retry{Max: 30, Seed: 7}
			if errs := driveConcurrent(tk, s, width, calls); errs != 0 {
				t.Fatalf("%d calls failed despite retry budget", errs)
			}
		})
	rs := s.Instances[0].R.Stats()
	if rs.Shed == 0 {
		t.Errorf("replica never shed under a %d-wide burst against an admission bound of %d", width, bound)
	}
	if rs.DepthHWM > bound {
		t.Errorf("depth high-water mark %d exceeds the admission bound %d", rs.DepthHWM, bound)
	}
	if rs.Completed != calls {
		t.Errorf("completed = %d, want %d", rs.Completed, calls)
	}
	bs := s.B.Stats()
	if bs.Shed == 0 {
		t.Error("balancer observed no backpressure sheds")
	}
	// The shed status round-trips the generic classification path.
	if err := wire.StatusBackpressure.Err(); !proc.Retryable(err) {
		t.Error("StatusBackpressure must classify as retryable")
	}
}

// TestShedLeavesBreakerClosed: a burst wider than a lone replica's
// admission bound is shed more than proc.BreakerThreshold times in a
// row, and the next call still routes to it. A shed is the answer of a
// healthy member, so it must not open the member's breaker: an open one
// would refuse every call for proc.BreakerCooldown while the replica
// drains and then idles.
func TestShedLeavesBreakerClosed(t *testing.T) {
	const width = 24
	s := &stacks.Routed{Replicas: 1, Nodes: []int{1}}
	testbed.RunT(t, testbed.Spec{Nodes: 2, Services: []testbed.Service{s}},
		func(tk *sim.Task, d *testbed.Deployment) {
			s.B.Retry.Max = 1
			if err := s.Do(tk, 1, 0); err != nil {
				t.Fatalf("warm-up call: %v", err)
			}
			var wg sim.WaitGroup
			wg.Add(width)
			for i := range width {
				d.Spawn("caller", func(ct *sim.Task) {
					defer wg.Done()
					_ = s.Do(ct, uint64(i+2), 100*us) // some are shed: the point of the burst
				})
			}
			wg.Wait(tk)
			if shed := s.B.Stats().Shed; shed < proc.BreakerThreshold {
				t.Fatalf("the burst was shed %d times, want at least %d", shed, proc.BreakerThreshold)
			}
			if err := s.Do(tk, width+2, 100*us); err != nil {
				t.Errorf("a call %v after the burst's sheds: %v, want it routed to the replica", tk.Now(), err)
			}
		})
}

// TestLeastWorkBeatsTwoShortJobs: with one long job routed to one
// replica and two shorter ones to the other, the next call joins the
// two shorter ones, whose work ends first, not the one long one, whose
// queue is shorter.
func TestLeastWorkBeatsTwoShortJobs(t *testing.T) {
	works := []sim.Time{1000 * us, 300 * us, 300 * us, 100 * us}
	s := &stacks.Routed{Replicas: 2, Policy: "least", Nodes: []int{1}}
	testbed.RunT(t, testbed.Spec{Nodes: 2, Services: []testbed.Service{s}},
		func(tk *sim.Task, d *testbed.Deployment) {
			if err := s.Do(tk, 1, 0); err != nil { // resolves the set
				t.Fatalf("warm-up call: %v", err)
			}
			s.B.Record = true
			var wg sim.WaitGroup
			wg.Add(len(works))
			for i, w := range works {
				d.Spawn("caller", func(ct *sim.Task) {
					defer wg.Done()
					ct.Sleep(sim.Time(i) * us)
					if err := s.Do(ct, uint64(i+2), w); err != nil {
						t.Errorf("call %d: %v", i, err)
					}
				})
			}
			wg.Wait(tk)
		})
	long, short := s.Instances[0].MemberID, s.Instances[1].MemberID
	if want := []uint64{long, short, short, short}; !slices.Equal(s.B.Picks, want) {
		t.Errorf("picks = %v, want %v: the last call joins the two 300 µs jobs, not the 1 ms one", s.B.Picks, want)
	}
}

// TestLeastWorkLeavesNoReplicaIdle: under open-loop Poisson load at
// ρ = 0.9 on 16 replicas, no admitted request waits at its replica
// while another replica was idle from the instant it was sent until it
// could have arrived, beyond the spread of one-way delays (send to
// admission). The balancer's ledger runs each replica's FCFS queue
// shifted by the one-way hop, so least work left is exact up to that
// spread; a view that ages nothing between replies misses a replica
// that has just gone idle.
func TestLeastWorkLeavesNoReplicaIdle(t *testing.T) {
	const replicas, requests, meanUs = 16, 4000, 400.0
	type job struct {
		replica          int
		sent, admit, svc sim.Time
	}
	jobs := make([]job, requests+1) // by request id; 0 is the warm-up call
	svc := make([]sim.Time, requests)
	rng := testbed.Rand(3)
	for i := range svc {
		svc[i] = testbed.USec(rng.ExpFloat64() * meanUs)
	}
	s := &stacks.Routed{Replicas: replicas, Policy: "least", Nodes: []int{1, 2, 3}}
	testbed.RunT(t, testbed.Spec{Nodes: 4, Services: []testbed.Service{s}},
		func(tk *sim.Task, d *testbed.Deployment) {
			s.B.Retry.Max = 1
			for i, in := range s.Instances {
				in.R.Service = func(dv *proc.Delivery) sim.Time {
					j := &jobs[dv.U64(0)]
					j.replica, j.admit, j.svc = i, tk.Now(), sim.Time(dv.U64(8))
					return j.svc
				}
			}
			if err := s.Do(tk, 0, 0); err != nil { // resolves the set
				t.Fatalf("warm-up call: %v", err)
			}
			rate := 0.9 * replicas * 1e6 / meanUs
			st := load.Open{Rate: rate, Requests: requests, Seed: 5}.Run(tk, func(wt *sim.Task, i int) error {
				jobs[i+1].sent = wt.Now()
				return s.Do(wt, uint64(i+1), svc[i])
			})
			if st.Errors != 0 {
				t.Fatalf("%d of %d requests failed", st.Errors, requests)
			}
		})

	// Each replica serves in admission order: replay it for every job's
	// start and finish, and take the hop spread over every job.
	jobs = jobs[1:]
	byReplica := make([][]int, replicas)
	hopMin, hopMax := sim.Time(1<<62), sim.Time(0)
	for id, j := range jobs {
		byReplica[j.replica] = append(byReplica[j.replica], id)
		hopMin, hopMax = min(hopMin, j.admit-j.sent), max(hopMax, j.admit-j.sent)
	}
	spread := hopMax - hopMin
	start, finish := make([]sim.Time, requests), make([]sim.Time, requests)
	for _, ids := range byReplica {
		slices.SortStableFunc(ids, func(a, b int) int { return cmp.Compare(jobs[a].admit, jobs[b].admit) })
		var free sim.Time
		for _, id := range ids {
			start[id] = max(jobs[id].admit, free)
			finish[id], free = start[id]+jobs[id].svc, start[id]+jobs[id].svc
		}
	}
	// idle reports whether replica y had nothing admitted over [from, to].
	idle := func(y int, from, to sim.Time) bool {
		for _, id := range byReplica[y] {
			if finish[id] > from && jobs[id].admit <= to {
				return false
			}
		}
		return true
	}
	bad := 0
	for id, j := range jobs {
		if wait := start[id] - j.admit; wait > spread {
			for y := range replicas {
				if y != j.replica && idle(y, j.sent, j.sent+hopMax) {
					if bad++; bad <= 3 {
						t.Errorf("request %d, sent at %v, waited %v at replica %d while replica %d was idle (hop spread %v)",
							id, j.sent, wait, j.replica, y, spread)
					}
					break
				}
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d requests waited behind work while a sibling idled", bad, requests)
	}
}

// TestBalancerResolvesOncePerInvalidation: tasks that find the cached
// set invalid together share one ResolveSet — the first one's — instead
// of each queueing its own at the serial registry; a second invalidation
// costs a second lookup, not one per caller.
func TestBalancerResolvesOncePerInvalidation(t *testing.T) {
	const width = 12
	s := &stacks.Routed{Replicas: 2}
	testbed.RunT(t, testbed.Spec{Nodes: 3, Services: []testbed.Service{s}},
		func(tk *sim.Task, d *testbed.Deployment) {
			for round := 1; round <= 2; round++ {
				s.B.Invalidate()
				if errs := driveConcurrent(tk, s, width, width); errs != 0 {
					t.Fatalf("round %d: %d routed calls failed", round, errs)
				}
				if got := s.B.Stats().Resolves; got != round {
					t.Errorf("%d callers through a Balancer invalidated %d times made %d ResolveSet round trips, want %d",
						width, round, got, round)
				}
			}
		})
}

// TestRoutedDeployRefusedPastMaxMembers: the registry refuses a name's
// replica past services.MaxMembers, and a Routed deployment asking for
// one more than that fails at set-up with the refusal, instead of
// serving with a replica that no balancer can see.
func TestRoutedDeployRefusedPastMaxMembers(t *testing.T) {
	defer func() {
		if v := fmt.Sprint(recover()); !strings.Contains(v, "stacks/routed: spawn") || !strings.Contains(v, "quota") {
			t.Errorf("a deployment of %d replicas ended with %q, want the registry's quota refusal", services.MaxMembers+1, v)
		}
	}()
	s := &stacks.Routed{Replicas: services.MaxMembers + 1, Nodes: []int{1}}
	testbed.Run(testbed.Spec{Nodes: 2, Services: []testbed.Service{s}}, func(*sim.Task, *testbed.Deployment) {})
}

// TestBalancerFailsOverOnCrash: two replicas, one loses its Controller
// mid-run. The heartbeat fences the node, the registry prunes the
// member, and the balancer — bounded by AttemptTimeout against
// in-flight requests the corpse admitted — re-resolves and lands every
// remaining call on the survivor.
func TestBalancerFailsOverOnCrash(t *testing.T) {
	s := &stacks.Routed{Replicas: 2, Nodes: []int{1, 2}, AttemptTimeout: 5 * ms}
	spec := testbed.Spec{
		Nodes:     3,
		Heartbeat: &services.WatchConfig{Every: 1 * ms, Suspect: 2},
		Services:  []testbed.Service{s},
	}
	testbed.RunT(t, spec, func(tk *sim.Task, d *testbed.Deployment) {
		s.B.Retry = proc.Retry{Max: 10, Seed: 5}
		for i := 0; i < 20; i++ {
			if err := s.Do(tk, uint64(i+1), 200*us); err != nil {
				t.Fatalf("pre-crash call %d: %v", i, err)
			}
		}
		d.Cl.CtrlFor(1).Crash()
		for i := 20; i < 40; i++ {
			if err := s.Do(tk, uint64(i+1), 200*us); err != nil {
				t.Fatalf("post-crash call %d: %v", i, err)
			}
		}
		// The fence must have pruned the dead member from the registry.
		tk.Sleep(5 * ms)
		set, err := s.Client.ResolveSet(tk, "svc.work")
		if err != nil {
			t.Fatalf("resolve-set: %v", err)
		}
		if len(set.Members) != 1 || set.Members[0].Node != 2 {
			t.Fatalf("post-fence set = %+v, want only the node-2 survivor", set.Members)
		}
	})
	if s.B.Stats().Failovers == 0 {
		t.Error("balancer recorded no failovers across a member crash")
	}
	var survivor *route.Instance
	for _, in := range s.Instances {
		if in.Node == 2 {
			survivor = in
		}
	}
	if got := survivor.R.Stats().Completed; got < 20 {
		t.Errorf("survivor completed %d requests, want >= the 20 post-crash calls", got)
	}
}

// captureRouted runs a routed workload with the fabric trace hook
// installed and returns the rendered event log plus the balancer's
// recorded pick sequence.
func captureRouted(t *testing.T, policy string) (trace, picks string) {
	t.Helper()
	s := &stacks.Routed{Replicas: 4, Policy: policy}
	spec := testbed.Spec{Nodes: 3, Seed: 11, Services: []testbed.Service{s}}
	var b strings.Builder
	testbed.RunT(t, spec, func(tk *sim.Task, d *testbed.Deployment) {
		s.B.Record = true
		d.Net().SetTrace(func(e fabric.TraceEvent) {
			fmt.Fprintf(&b, "%d %d>%d type=%d rdma=%v bytes=%d class=%d\n",
				e.At, e.From, e.To, e.Type, e.RDMA, e.Bytes, e.Class)
		})
		if errs := driveConcurrent(tk, s, 4, 64); errs != 0 {
			t.Fatalf("%d routed calls failed", errs)
		}
	})
	if b.Len() == 0 {
		t.Fatal("trace capture saw no fabric transfers")
	}
	return b.String(), fmt.Sprint(s.B.Picks)
}

// Pinned SHA-256 digests of each policy's fabric trace followed by
// its pick sequence (see the pinned digests in
// internal/exp/determinism_test.go for the contract).
//
// Last moved when replies stopped carrying the replica's backlog in
// imm[8:16) (ec9917cb… and 844d6864… until then; the rr shape
// 92f19f39…): a reply's ReqInvoke and CtrlInvoke are 10 bytes shorter
// and its Deliver 8, so the last reply reaches the balancer at 6 261 019
// ns instead of 6 261 084 (rr) and at 5 433 022 instead of 5 433 195
// (least). Neither pick sequence moved. In rr's trace the client's
// Controller now sends two requests out before, not after, a replica's
// reply of nearly the same instant (the replies ahead of them arrived
// sooner), which moves its shape.
//
// Before that, they moved when wire.ReplyTag moved from bit 63 to bit 34 (72242750…
// and f8cc4ef2… until then; the shapes and pick sequences did not
// move): the balancer's reply Requests' request_create and the replies'
// Delivers are 5 bytes shorter, so the first transfer is 10 bytes, not
// 15, and leaves at 149 464 ns instead of 149 472, and the last reply
// reaches the balancer at 6 261 084 ns instead of 6 261 099 (rr) and at
// 5 433 195 instead of 5 433 218 (least).
//
// Before that, they moved when a reply stopped taking a window credit: the balancer
// sends no DeliverDone for it (25448d04… and 782de03b… until then;
// shapes 6f6993bc… and 81c7529b…). Each trace's 591 transfers are 526,
// its 65 DeliverDones from the balancer's Process gone; the first to go
// is the 9th, at 164 884 ns. Neither pick sequence moved. The last reply
// reaches the balancer at 6 261 099 ns instead of 6 264 555 (rr) and at
// 5 433 218 instead of 5 442 862 (least): a request no longer waits
// behind the service of the last reply's DeliverDone.
var routedSHA256 = map[string]string{
	"rr":    "9076b2e8d199c85c45337f33e5f53b5960989dd29341c299fef68a9cb2ea2802",
	"least": "24e5e54070010e77794f297bfb318d411705531fe93ca859298374081ea88250",
}

// Pinned SHA-256 digests of each policy's trace shape (routedShape)
// followed by its pick sequence: a change that only resizes messages,
// and so moves the instants after them, leaves these alone.
var routedShapeSHA256 = map[string]string{
	"rr":    "f9d0a271fa3a75de4f90372627a14e48bdaab170a12a0d2054a36454cc1fcca5",
	"least": "01d7400566a760d02b8dfdc4e126a8948b787f8a098802d0ba0904678d10aced",
}

// routedShape strips a captureRouted log of every instant and byte
// count: which transfers happen, between whom, of what type and class,
// in what order.
func routedShape(trace string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(trace, "\n"), "\n") {
		f := slices.DeleteFunc(strings.Fields(line)[1:], func(x string) bool { return strings.HasPrefix(x, "bytes=") })
		b.WriteString(strings.Join(f, " ") + "\n")
	}
	return b.String()
}

// TestTraceDigestsPinned holds the routed workload — every fabric
// transfer and every member the balancer picked — and its shape to the
// pinned digests above.
func TestTraceDigestsPinned(t *testing.T) {
	for _, policy := range []string{"rr", "least"} {
		trace, picks := captureRouted(t, policy)
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(trace+picks))); got != routedSHA256[policy] {
			t.Errorf("%s: trace+picks digest = %s, pinned %s", policy, got, routedSHA256[policy])
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(routedShape(trace)+picks))); got != routedShapeSHA256[policy] {
			t.Errorf("%s: shape+picks digest = %s, pinned %s", policy, got, routedShapeSHA256[policy])
		}
	}
}

// TestRoutingDeterminismMatrix is the routing half of the determinism
// acceptance: for each policy, the member selection sequence and the
// complete fabric event stream must be byte-identical across runs at
// GOMAXPROCS 1 and 4.
func TestRoutingDeterminismMatrix(t *testing.T) {
	for _, policy := range []string{"rr", "least"} {
		baseTrace, basePicks := captureRouted(t, policy)
		if basePicks == "[]" {
			t.Fatalf("%s: no picks recorded", policy)
		}
		for _, procs := range []int{1, 4} {
			oldProcs := runtime.GOMAXPROCS(procs)
			gotTrace, gotPicks := captureRouted(t, policy)
			runtime.GOMAXPROCS(oldProcs)
			name := fmt.Sprintf("%s procs=%d", policy, procs)
			if gotPicks != basePicks {
				t.Errorf("%s: pick sequence differs\n base: %s\n got:  %s", name, basePicks, gotPicks)
			}
			if gotTrace != baseTrace {
				la, lb := strings.Split(baseTrace, "\n"), strings.Split(gotTrace, "\n")
				n := len(la)
				if len(lb) < n {
					n = len(lb)
				}
				for i := 0; i < n; i++ {
					if la[i] != lb[i] {
						t.Errorf("%s: traces diverge at event %d:\n base: %s\n got:  %s", name, i, la[i], lb[i])
						break
					}
				}
				if len(la) != len(lb) {
					t.Errorf("%s: traces diverge in length: %d vs %d events", name, len(la), len(lb))
				}
			}
		}
	}
}
