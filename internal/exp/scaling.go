package exp

import (
	"fmt"

	"fractos/internal/app/faceverify"
	"fractos/internal/assert"
	"fractos/internal/core"
	"fractos/internal/load"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/testbed/stacks"
)

// scalingRates is the offered-load sweep (req/s). The closed-loop
// capacity of the batch-64 FractOS stack is ~3.3k req/s (Figure 13,
// 8 in flight), so the sweep brackets the saturation knee.
var scalingRates = []float64{500, 1000, 2000, 3000, 3600, 4200}

// scalingRequests is the number of open-loop arrivals per rate point.
const scalingRequests = 120

// ScalingFaceVerify is the first open-loop scaling experiment: Poisson
// request arrivals (offered load does not back off when the system
// slows down — "heavy traffic from millions of users", not N looping
// clients) against the 4-node face-verification testbed, sweeping the
// offered rate and reporting latency percentiles and goodput until
// saturation. Below the knee, percentiles sit near the closed-loop
// request latency; past it, the arrival queue grows for the whole run
// and the tail explodes while goodput plateaus at the Figure 13
// capacity.
func ScalingFaceVerify() *Table {
	return scalingFaceVerify(scalingRates, scalingRequests)
}

func scalingFaceVerify(rates []float64, requests int) *Table {
	t := NewTable("scaling-fv",
		fmt.Sprintf("Open-loop face-verification scaling, batch 64, %d Poisson arrivals per point", requests),
		"offered req/s", "goodput req/s", "p50 ms", "p90 ms", "p99 ms", "p999 ms", "max in flight")
	cfg := faceverify.Config{Batch: 64, Files: 8, Slots: 8}
	msf := func(d sim.Time) float64 { return float64(d) / 1e6 }
	var p99s, goodputs []float64
	for _, rate := range rates {
		fv := &stacks.FaceVerify{Cfg: cfg}
		var st *load.Stats
		testbed.Run(appSpec(core.CtrlOnCPU, fv), func(tk *sim.Task, d *testbed.Deployment) {
			reqs := fvRequests(fv, requests, requests, 9)
			st = load.Open{Rate: rate, Requests: requests, Seed: 13}.Run(tk,
				func(wt *sim.Task, i int) error {
					out, err := fv.Verify(wt, reqs[i])
					if err != nil {
						return err
					}
					if !reqs[i].CheckResults(out) {
						assert.Failf("exp/scaling: wrong verification verdicts")
					}
					return nil
				})
			if st.Errors > 0 {
				assert.Failf("exp/scaling: %d of %d requests failed", st.Errors, requests)
			}
		})
		h := &st.Hist
		t.AddRow(fmt.Sprintf("%.0f", rate), fmt.Sprintf("%.0f", st.Throughput()),
			fmt.Sprintf("%.3f", msf(h.P50())), fmt.Sprintf("%.3f", msf(h.P90())),
			fmt.Sprintf("%.3f", msf(h.P99())), fmt.Sprintf("%.3f", msf(h.P999())),
			fmt.Sprint(st.InflightHWM))
		p99s = append(p99s, msf(h.P99()))
		goodputs = append(goodputs, st.Throughput())
	}
	// Headline metrics: the tail at light and heavy load, the knee
	// (last offered rate whose p99 stays within 2.5x of the light-load
	// tail), and the saturated goodput.
	t.Metric("p99-light-ms", p99s[0])
	t.Metric("p99-heavy-ms", p99s[len(p99s)-1])
	knee := rates[0]
	for i, r := range rates {
		if p99s[i] <= 2.5*p99s[0] {
			knee = r
		}
	}
	t.Metric("knee-offered", knee)
	sat := 0.0
	for _, g := range goodputs {
		if g > sat {
			sat = g
		}
	}
	t.Metric("sat-goodput", sat)
	t.Note("open-loop Poisson arrivals: offered load is independent of completions, so past the knee")
	t.Note("the arrival queue grows and the p99/p999 tail explodes while goodput plateaus near the")
	t.Note("closed-loop capacity of Figure 13 (~3.3k req/s at batch 64)")
	return t
}
