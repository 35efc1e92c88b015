package exp

import (
	"fmt"

	"fractos/internal/assert"
	"fractos/internal/load"
	"fractos/internal/services"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/testbed/stacks"
)

// Scaling-route: the replicated-service layer under open-loop overload.
// A 16-replica routed service (exponential service times, mean 400 µs,
// so one replica saturates near 2 500 req/s) takes Poisson arrivals at
// 10×, 25×, and 100× the single-replica knee under round-robin and
// least-loaded routing. The balancer keeps each replica's due instant
// from the work it routed there, so least-loaded routes by least work
// left and queues like one central FCFS queue; round-robin is the
// blind baseline. Replicas shed above their
// admission bound (16) with the retryable StatusBackpressure, which
// keeps the accepted-request tail bounded at 100× overload (goodput
// saturates and the excess is refused instead of queued); a shed opens
// no breaker, so goodput holds near capacity.
//
// A final scenario measures the autoscaler's repair path:
// under load, a replica node's Controller crashes; the heartbeat
// fences it, the registry prunes its member, and the autoscaler spawns
// a replacement — the fence-to-replacement latency is the membership
// MTTR, in virtual time.

const (
	// routeReplicas and routeServiceMean put the single-replica knee at
	// 1/mean = 2 500 req/s.
	routeReplicas        = 16
	routeServiceMeanUs   = 400.0
	routeKnee            = 2500.0
	routeRequestsPerRate = 4000
)

// routeMultipliers sweeps offered load as multiples of the
// single-replica knee.
var routeMultipliers = []float64{10, 25, 100}

// ScalingRoute generates the scaling-route table.
func ScalingRoute() *Table {
	t := NewTable("scaling-route",
		fmt.Sprintf("Replicated-service routing under open-loop overload, %d replicas, exp(%.0f µs) service",
			routeReplicas, routeServiceMeanUs),
		"offered ×knee", "policy", "offered req/s", "goodput req/s", "shed %", "p50 ms", "p99 ms")
	msf := func(d sim.Time) float64 { return float64(d) / 1e6 }

	// One service-time draw per request, shared across every (policy,
	// rate) point so the comparison isolates the routing decision.
	rng := testbed.Rand(21)
	svc := make([]sim.Time, routeRequestsPerRate)
	for i := range svc {
		svc[i] = testbed.USec(rng.ExpFloat64() * routeServiceMeanUs)
	}

	for _, mult := range routeMultipliers {
		rate := mult * routeKnee
		for _, policy := range []string{"rr", "least"} {
			s := &stacks.Routed{Replicas: routeReplicas, Policy: policy, Nodes: []int{1, 2, 3}}
			var st *load.Stats
			testbed.Run(testbed.Spec{Nodes: 4, Services: []testbed.Service{s}},
				func(tk *sim.Task, d *testbed.Deployment) {
					// Single attempt per arrival: open-loop measurement —
					// a shed request is a refusal, not deferred load.
					s.B.Retry.Max = 1
					st = load.Open{Rate: rate, Requests: routeRequestsPerRate, Seed: 13}.Run(tk,
						func(wt *sim.Task, i int) error {
							return s.Do(wt, uint64(i+1), svc[i])
						})
				})
			shed := float64(st.Errors) / float64(routeRequestsPerRate)
			h := &st.Hist
			t.AddRow(fmt.Sprintf("%.0fx", mult), policy,
				fmt.Sprintf("%.0f", rate), fmt.Sprintf("%.0f", st.Throughput()),
				fmt.Sprintf("%.1f", shed*100),
				fmt.Sprintf("%.3f", msf(h.P50())), fmt.Sprintf("%.3f", msf(h.P99())))
			suffix := fmt.Sprintf("%s-%.0fx", policy, mult)
			t.Metric("p99-"+suffix+"-ms", msf(h.P99()))
			t.Metric("goodput-"+suffix, st.Throughput())
			t.Metric("shed-"+suffix, shed)
		}
	}

	mttr := routeScaleMTTR(t)
	t.Metric("mttr-ms", float64(mttr)/1e6)

	t.Note("service times are one shared draw per request id, so rr and least face identical work;")
	t.Note("least = least work left: each replica's due instant, from the work routed to it; then fewest in flight")
	t.Note("past saturation the admission bound (MaxQueue=16/replica) sheds the excess with the")
	t.Note("retryable StatusBackpressure, keeping the accepted-request p99 bounded at 100x overload;")
	t.Note("a shed opens no breaker, so no replica idles while arrivals are refused")
	t.Note(fmt.Sprintf("autoscaler repair after a mid-run node crash: membership MTTR %.3f ms virtual", float64(mttr)/1e6))
	return t
}

// routeScaleMTTR runs the autoscaler repair scenario: sustained load,
// a node crash mid-run, heartbeat fencing, and a replacement replica.
// Returns the worst fence-to-replacement latency; per-request retries
// keep the workload loss-free across the flap.
func routeScaleMTTR(t *Table) sim.Time {
	s := &stacks.Routed{
		Replicas: 4, Repair: true, Nodes: []int{1, 2, 3},
		AttemptTimeout: 5 * cms,
	}
	spec := testbed.Spec{
		Nodes:     4,
		Heartbeat: &services.WatchConfig{Every: 1 * cms, Suspect: 2},
		Services:  []testbed.Service{s},
	}
	const requests = 300
	var st *load.Stats
	testbed.Run(spec, func(tk *sim.Task, d *testbed.Deployment) {
		s.B.Retry.Max = 12
		d.K().After(tk.Now()+30*cms, func() { d.Cl.CtrlFor(1).Crash() })
		st = load.Open{Rate: 2000, Requests: requests, Seed: 13}.Run(tk,
			func(wt *sim.Task, i int) error {
				return s.Do(wt, uint64(i+1), testbed.USec(routeServiceMeanUs))
			})
	})
	if st.Errors > 0 {
		assert.Failf("exp/routescale: %d of %d requests lost across the node flap", st.Errors, requests)
	}
	t.Metric("flap-goodput", st.Throughput())
	return s.Scaler.MTTR()
}
