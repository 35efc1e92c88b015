package main

import (
	"fmt"
	"strings"

	"fractos/internal/fabric"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// ---- residence ledger ----------------------------------------------

// ledger says where an unloaded request's virtual time went: the
// request's interval is cut at every fabric transfer's send time, and
// each slice belongs to the kind of endpoint that sent the transfer
// ending it — the time the request travelled to that endpoint plus the
// time it was held there. A slice that starts with an RDMA transfer is
// the transfer itself and gets a bucket of its own: the bytes move
// between arenas while the Controller that started them waits.
type ledger struct {
	n      int                 // requests that completed
	total  sim.Time            // their summed latency
	hold   map[string]sim.Time // the same time, split by kind; sums to total exactly
	median sim.Time            // median latency at one outstanding
	exact  bool                // every request's slices summed to its latency
}

// mean is the mean time per request spent in one kind, or overall.
func (l ledger) mean(t sim.Time) float64 { return ratio(us(t), float64(l.n)) }

var ledgerKinds = []string{"proc", "core", "device", "app", "rdma"}

// kindOf classifies an endpoint: Controllers are core, the callers are
// proc, device adaptors and the file service are device, and every
// other Process (echo server, replicas, registry) is app.
func kindOf(m *measured, id fabric.EndpointID) string {
	for _, c := range m.d.Cl.Ctrls {
		if c.EndpointID() == id {
			return "core"
		}
	}
	ep, ok := m.d.Net().Lookup(id)
	switch {
	case !ok:
		return "app"
	case strings.Contains(ep.Name, "client") || ep.Name == "frontend":
		return "proc"
	case strings.Contains(ep.Name, "adaptor") || strings.HasPrefix(ep.Name, "fs-"):
		return "device"
	default:
		return "app"
	}
}

// residence issues ledgerSamples requests one at a time from client 0
// with the fabric traced and attributes every nanosecond of each.
func residence(tk *sim.Task, m *measured) ledger {
	var events []fabric.TraceEvent
	m.d.Net().SetTrace(func(e fabric.TraceEvent) { events = append(events, e) })
	defer m.d.Net().SetTrace(nil)

	kinds := map[fabric.EndpointID]string{}
	sender := func(e fabric.TraceEvent) string {
		if e.RDMA {
			return "core" // only Controllers issue RDMA; From names the source arena
		}
		k, ok := kinds[e.From]
		if !ok {
			k = kindOf(m, e.From)
			kinds[e.From] = k
		}
		return k
	}

	l := ledger{hold: map[string]sim.Time{}, exact: true}
	lats := make([]sim.Time, 0, ledgerSamples)
	for j := 0; j < ledgerSamples; j++ {
		events = events[:0]
		i := m.next
		m.next++
		start := tk.Now()
		if err := m.r.request(tk, 0, i); err != nil {
			m.fail(err)
			continue
		}
		end := tk.Now()
		m.lat[i] = end - start
		lats = append(lats, end-start)

		var sum sim.Time
		at, rdma := start, false
		for _, e := range events {
			holder := sender(e)
			if rdma {
				holder = "rdma"
			}
			l.hold[holder] += e.At - at
			sum += e.At - at
			at, rdma = e.At, e.RDMA
		}
		// The last transfer brings the answer back to the caller.
		l.hold["proc"] += end - at
		sum += end - at
		if sum != end-start {
			l.exact = false
		}
		l.total += end - start
	}
	var check sim.Time
	for _, k := range ledgerKinds {
		check += l.hold[k]
	}
	l.n, l.exact = len(lats), l.exact && check == l.total
	sortTimes(lats)
	l.median = quantile(lats, 0.5)
	return l
}

// ---- trace digest --------------------------------------------------

// digest summarises the transfers recorded over the traced segments.
type digest struct {
	sends     int // Net.Send frames
	ctrlMsgs  int // of which control class
	ctrlBytes int
	byType    map[wire.Type][2]int // count, bytes per control wire type
	shape     [3]float64           // share of control frames per canonical message
}

func digestOf(events []fabric.TraceEvent) digest {
	d := digest{byType: map[wire.Type][2]int{}}
	var shapes [3]int
	for _, e := range events {
		if e.RDMA {
			continue
		}
		d.sends++
		if e.Class != wire.Control {
			continue
		}
		d.ctrlMsgs++
		d.ctrlBytes += e.Bytes
		t := d.byType[e.Type]
		d.byType[e.Type] = [2]int{t[0] + 1, t[1] + e.Bytes}
		shapes[canonicalOf(e.Type)]++
	}
	for i, n := range shapes {
		if d.ctrlMsgs > 0 {
			d.shape[i] = float64(n) / float64(d.ctrlMsgs)
		}
	}
	return d
}

// ---- per-layer metrics ---------------------------------------------

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerMetrics turns a traced run into the per-layer metric map.
// Every name of the perLayer table is present; what the workload does
// not reach is 0.
func perLayerMetrics(tr *traced, div int) (map[string]float64, []string) {
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.Name] = 0
	}
	m, w := tr.main, tr.main.w
	var failures []string

	attempted, virt := 0, sim.Time(0)
	for _, s := range m.segs {
		attempted += s.n
		virt += s.virt
	}
	lat := m.okLatencies(m.timedLo, m.next)
	reqs := float64(len(lat))
	kreq := reqs / 1000
	out["fail_share"] = ratio(float64(m.failed()), float64(attempted))

	// Counters, over all three segments.
	fab := m.after.fab.Sub(m.before.fab)
	dc := m.after.core
	addMetrics(&dc, m.before.core, -1)
	out["fabric.xnode_msgs_per_req"] = ratio(float64(fab.CrossNodeMsgs), reqs)
	out["fabric.xnode_ctrl_bytes_per_req"] = ratio(float64(fab.CrossNodeBytes-fab.CrossNodeDataBytes), reqs)
	out["fabric.xnode_data_bytes_per_req"] = ratio(float64(fab.CrossNodeDataBytes), reqs)
	out["fabric.rdma_ops_per_req"] = ratio(float64(fab.RDMAOps), reqs)
	out["fabric.rdma_bytes_per_req"] = ratio(float64(fab.RDMABytes), reqs)
	// 1 is one direction of one link saturated for the whole phase; a
	// duplex pair carrying both ways tops out at 2.
	out["fabric.virt_link_util"] = ratio(float64(fab.CrossNodeBytes), m.d.Net().Profile().WireBW*virt.Seconds())
	out["fabric.virt_goodput_mbps"] = ratio(float64(dc.CopyBytes)/1e6, virt.Seconds())
	out["fabric.dropped_per_kreq"] = ratio(float64(m.after.faults.Dropped-m.before.faults.Dropped), kreq)
	out["fabric.delayed_per_kreq"] = ratio(float64(m.after.faults.Delayed-m.before.faults.Delayed), kreq)

	syscalls := dc.NullOps + dc.MemOps + dc.Copies + dc.ReqCreates + dc.Invokes + dc.CapOps
	out["core.syscalls_per_req"] = ratio(float64(syscalls), reqs)
	out["core.invokes_per_req"] = ratio(float64(dc.Invokes), reqs)
	out["core.req_creates_per_req"] = ratio(float64(dc.ReqCreates), reqs)
	out["core.cap_ops_per_req"] = ratio(float64(dc.CapOps), reqs)
	out["core.copies_per_req"] = ratio(float64(dc.Copies), reqs)
	out["core.copy_bytes_per_req"] = ratio(float64(dc.CopyBytes), reqs)
	out["core.deliveries_per_req"] = ratio(float64(dc.DeliveriesSent), reqs)
	out["core.backpressured_per_kreq"] = ratio(float64(dc.Backpressured), kreq)
	out["core.retransmits_per_kreq"] = ratio(float64(dc.Retransmits), kreq)
	out["core.dedup_hits_per_kreq"] = ratio(float64(dc.DedupHits), kreq)
	out["core.rpc_aborted_per_kreq"] = ratio(float64(dc.RPCAborted), kreq)
	out["core.send_failed_per_kreq"] = ratio(float64(dc.SendFailed), kreq)
	out["cap.live_entries_end"] = float64(tr.liveEntries)

	own := func(k string) float64 { return m.after.own[k] - m.before.own[k] }
	out["route.calls"] = own("route.calls")
	out["route.shed_per_kreq"] = ratio(own("route.shed"), kreq)
	out["route.failovers"] = own("route.failovers")
	out["route.resolves"] = m.after.own["route.resolves"] // resolved once, during warm-up
	out["services.resolves_per_kreq"] = ratio(own("route.resolves"), kreq)
	out["route.replica_depth_hwm"] = m.after.own["route.depth_hwm"]
	out["route.pick_imbalance"] = ratio(m.after.own["route.completed_max"]*routeReplicas, m.after.own["route.completed_sum"])
	out["device.gpu_launches_per_req"] = ratio(own("gpu.launches"), reqs)
	out["device.gpu_busy_share"] = ratio(own("gpu.busy_ns"), float64(virt))
	out["device.nvme_reads_per_req"] = ratio(own("nvme.reads"), reqs)
	out["device.nvme_bytes_per_req"] = ratio(own("nvme.bytes"), reqs)

	hwm, lag := 0, sim.Time(0)
	for _, s := range m.segs {
		hwm, lag = max(hwm, s.hwm), max(lag, s.lagMax)
	}
	out["load.inflight_hwm"] = float64(hwm)
	out["load.gen_lag_max_us"] = us(lag)

	// The push/pull split of copy-bulk.
	if b, ok := m.r.(*copyBulk); ok {
		var push, pull []sim.Time
		for i := m.timedLo; i < m.next; i++ {
			if l := m.lat[i]; l < 0 {
				continue
			} else if b.op(i).push {
				push = append(push, l)
			} else {
				pull = append(pull, l)
			}
		}
		sortTimes(push)
		sortTimes(pull)
		out["fabric.virt_push_p50_us"] = us(quantile(push, 0.5))
		out["fabric.virt_pull_p50_us"] = us(quantile(pull, 0.5))
	}

	// The trace, over the two traced segments.
	untraced, tracedSegs := m.segs[0], m.segs[1:]
	tracedReqs := 0
	for _, s := range tracedSegs {
		tracedReqs += s.ok
	}
	dg := tr.digest
	out["fabric.sends_per_req"] = ratio(float64(dg.sends), float64(tracedReqs))
	out["wire.msgs_per_req"] = ratio(float64(dg.ctrlMsgs), float64(tracedReqs))
	out["wire.bytes_per_msg"] = ratio(float64(dg.ctrlBytes), float64(dg.ctrlMsgs))

	// Host clock, over all three segments; events from the twin.
	wall := m.after.wall.Sub(m.before.wall)
	cpu := m.after.cpu - m.before.cpu
	events := float64(tr.segEvents)
	out["sim.events_per_req"] = ratio(events, float64(attempted))
	out["sim.host_ns_per_event"] = ratio(float64(wall.Nanoseconds()), events)
	out["testbed.setup_events"] = float64(tr.setupEvents)
	out["testbed.setup_virt_ms"] = float64(m.setupVirt) / 1e6
	out["host.cpu_us_per_req"] = ratio(float64(cpu.Microseconds()), float64(attempted))
	out["host.cores_used"] = ratio(cpu.Seconds(), wall.Seconds())
	out["host.bytes_per_req"] = ratio(float64(m.after.mem.TotalAlloc-m.before.mem.TotalAlloc), float64(attempted))
	out["host.gc_cycles"] = float64(m.after.mem.NumGC - m.before.mem.NumGC)
	out["host.gc_pause_ms"] = float64(m.after.mem.PauseTotalNs-m.before.mem.PauseTotalNs) / 1e6
	tracedRate := 0.0
	for _, s := range tracedSegs {
		tracedRate += s.reqPerSec() / float64(len(tracedSegs))
	}
	out["trace.overhead_pct"] = 100 * (1 - ratio(tracedRate, untraced.reqPerSec()))

	// CPU profile of the traced segments, by package.
	shares, err := cpuShares(tr.profile)
	if err != nil {
		failures = append(failures, "cpu profile: "+err.Error())
	}
	for layer, s := range shares {
		out[layer+".cpu_share"] = s
	}

	// Residence ledger.
	lg := tr.ledger
	out["proc.virt_unloaded_us"] = lg.mean(lg.total)
	out["proc.virt_hold_us"] = lg.mean(lg.hold["proc"])
	out["core.virt_hold_us"] = lg.mean(lg.hold["core"])
	out["device.virt_hold_us"] = lg.mean(lg.hold["device"])
	out["app.virt_hold_us"] = lg.mean(lg.hold["app"])
	out["fabric.virt_rdma_hold_us"] = lg.mean(lg.hold["rdma"])
	out["load.virt_queue_us"] = us(quantile(lat, 0.5) - lg.median)
	if !lg.exact {
		failures = append(failures, "residence ledger slices do not sum to the unloaded latency")
	}
	if lr := tr.ledgerRun; lr.failed() > 0 {
		failures = append(failures, fmt.Sprintf("residence ledger: %d requests failed%s", lr.failed(), describe(lr.firstError)))
	}

	// The ladder.
	dispatch, sw, timer := simDispatch(div), simSwitch(div), simTimer(div)
	wr := wireRoundTrip(dg.shape, div)
	send, rdma := fabricSend(div), fabricRDMA(div)
	null, nullVirt := coreNull(div)
	call, do := procCall(div), routeDo(div)
	out["sim.ladder_dispatch_ns"] = dispatch.ns
	out["sim.ladder_switch_ns"] = sw.ns
	out["sim.ladder_timer_ns"] = timer.ns
	out["wire.ladder_roundtrip_ns"] = wr.ns
	out["wire.ladder_allocs"] = wr.allocs
	out["fabric.ladder_send_ns"] = send.ns
	out["fabric.ladder_send_allocs"] = send.allocs
	out["fabric.ladder_rdma64k_ns"] = rdma.ns
	out["cap.ladder_validate_ns"] = tr.validateNs
	out["core.ladder_null_syscall_ns"] = null.ns
	out["core.virt_null_syscall_us"] = us(nullVirt)
	out["proc.ladder_call_ns"] = call.ns
	out["route.ladder_do_ns"] = do.ns

	// What the ladder explains of the untraced segment's host time per
	// request: every message at the cost of a bare send, every RDMA op
	// at the 64 KiB cost scaled by its size, every syscall at what a
	// null syscall costs beyond its two messages, every routed call at
	// what Routed.Do costs beyond a proc.Call. What is left over is
	// device and application compute, queueing in the benchmark's own
	// handlers, and GC.
	explained := out["fabric.sends_per_req"]*send.ns +
		out["fabric.rdma_bytes_per_req"]/(64<<10)*rdma.ns +
		out["core.syscalls_per_req"]*max(0, null.ns-2*send.ns) +
		ratio(out["route.calls"], reqs)*max(0, do.ns-call.ns)
	hostNs := 1e9 / untraced.reqPerSec()
	out["ladder.unattributed_pct"] = 100 * (1 - explained/hostNs)

	if w.extras != nil {
		failures = append(failures, w.extras(m, out)...)
	}

	// Layer-separation gates.
	for _, name := range w.zero {
		if out[name] != 0 {
			failures = append(failures, name+" must be 0 on "+w.name)
		}
	}
	for _, name := range w.positive {
		if out[name] <= 0 {
			failures = append(failures, name+" must be positive on "+w.name)
		}
	}
	return out, failures
}
