package main

import (
	"fmt"
	"math"

	"fractos/internal/sim"
)

// routeLadder is the offered load of each step as a share of the 16
// replicas' capacity. The 0.90 step is the timed phase itself.
var routeLadder = []float64{0.50, 0.70, 0.80, 0.90, 0.95, 1.25}

// routeExtras runs the rest of the rate ladder in a deployment of its
// own and reports latency at half capacity, the refused share past
// saturation, and the highest rate that holds the latency limit.
func routeExtras(main *measured, out map[string]float64) []string {
	w, seed, n := main.w, main.seed, main.n
	type step struct {
		share  float64
		p99    sim.Time
		failed int
		drain  sim.Time
		n      int
	}
	steps := make([]step, len(routeLadder))
	m := deploy(w, seed, n, len(routeLadder)*n, func(tk *sim.Task, m *measured) {
		for i, share := range routeLadder {
			if share == 0.90 {
				continue
			}
			lo, failedBefore := m.next, m.errs+m.wrong
			seg := m.run(tk, n, 0, share*routeCapacity)
			steps[i] = step{share: share, p99: quantile(m.okLatencies(lo, m.next), 0.99),
				failed: m.errs + m.wrong - failedBefore, drain: seg.drain, n: n}
		}
	})
	for i, share := range routeLadder {
		if share != 0.90 {
			continue
		}
		s := step{share: share, p99: quantile(main.okLatencies(main.timedLo, main.next), 0.99), failed: main.errs + main.wrong}
		for _, seg := range main.segs {
			s.drain = max(s.drain, seg.drain)
			s.n += seg.n
		}
		steps[i] = s
	}

	var failures []string
	if m.oracleBad > 0 {
		failures = append(failures, fmt.Sprintf("route ladder: %d request ids served twice or lost", m.oracleBad))
	}
	slo := 0.0
	for _, s := range steps {
		// No backlog: everything in flight at the last arrival finished
		// within the latency limit.
		if s.p99 > routeSLO || s.failed > 0 || s.drain > routeSLO {
			break
		}
		slo = s.share * routeCapacity
	}
	out["route.virt_p99_us_r50"] = us(steps[0].p99)
	last := steps[len(steps)-1]
	out["route.shed_share_r125"] = ratio(float64(last.failed), float64(last.n))
	out["route.slo_max_rate_rps"] = slo
	if slo == 0 || slo == last.share*routeCapacity {
		failures = append(failures, "route.slo_max_rate_rps is not strictly inside the ladder")
	}
	return failures
}

// Paper §6.5: FractOS runs face verification 47 % faster than the
// baseline stack and moves a third of the bytes.
const (
	paperSpeedup      = 1.47
	paperTrafficRatio = 3.0
)

// faceVerifyExtras runs the baseline twin — the same inputs on NFS,
// NVMe-oF and rCUDA — for one segment and reports the tax ratios.
func faceVerifyExtras(main *measured, out map[string]float64) []string {
	seed, n := main.seed, main.n
	twin := *main.w
	twin.new = func(seed int64) runner { return &faceVerify{seed: seed, baseline: true} }
	b := deploy(&twin, seed, n, n, func(tk *sim.Task, m *measured) {
		m.before = takeSnapshot(tk, m.d, m.r)
		m.segs = append(m.segs, m.segment(tk))
		m.after = takeSnapshot(tk, m.d, m.r)
	})
	var failures []string
	if b.failed() > 0 {
		failures = append(failures, fmt.Sprintf("baseline twin: %d of %d requests failed%s", b.failed(), n, describe(b.firstError)))
	}
	lat := b.okLatencies(b.timedLo, b.next)
	fab := b.after.fab.Sub(b.before.fab)
	ok := float64(len(lat))
	p50 := us(quantile(lat, 0.5))
	bytesPerReq := ratio(float64(fab.CrossNodeBytes), ok)
	out["baseline.virt_p50_us"] = p50
	out["baseline.wire_bytes_per_req"] = bytesPerReq
	out["baseline.wire_msgs_per_req"] = ratio(float64(fab.CrossNodeMsgs), ok)

	ours := us(quantile(main.okLatencies(main.timedLo, main.next), 0.5))
	oursBytes := out["fabric.xnode_ctrl_bytes_per_req"] + out["fabric.xnode_data_bytes_per_req"]
	speedup, traffic := ratio(p50, ours), ratio(bytesPerReq, oursBytes)
	out["baseline.tax_speedup"] = speedup
	out["baseline.tax_traffic_ratio"] = traffic
	out["baseline.model_err_speedup_pct"] = 100 * math.Abs(speedup-paperSpeedup) / paperSpeedup
	out["baseline.model_err_traffic_pct"] = 100 * math.Abs(traffic-paperTrafficRatio) / paperTrafficRatio
	return failures
}
