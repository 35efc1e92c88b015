package main

// metricDef names one number the benchmark reports. The two tables
// below are the single source for BENCHMARK.json (-manifest prints it)
// and for the names the runs emit; the smoke test holds the three
// together.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Clock  string  // "virtual" repeats exactly for a seed; "host" is noisy; "count" is a ratio of counters
	Moves  string  // per-layer only: the end-to-end metric and workload it should move
	Local  bool    // kept in result documents and -compare, not reported to the driver
}

// endToEnd is reported by every workload with --trace 0. The driver
// compares medians over ten different seeds on a shared 2-core box, so a
// bound is three times the spread seen there (README, "Baseline") — for
// virt_p50_us and virt_p99_us that is route-open's, whose queues at 90 %
// load differ by seed; the other workloads repeat to under 1 %. At one
// seed every virtual metric and count is exact, and -compare pairs runs
// by seed to use that.
var endToEnd = []metricDef{
	{Name: "virt_p50_us", Unit: "us", Better: "lower", Bound: 0.20, Clock: "virtual"},
	{Name: "virt_p99_us", Unit: "us", Better: "lower", Bound: 0.25, Clock: "virtual"},
	{Name: "virt_goodput_rps", Unit: "1/s", Better: "higher", Bound: 0.08, Clock: "virtual"},
	{Name: "wire_bytes_per_req", Unit: "B", Better: "lower", Bound: 0.05, Clock: "virtual"},
	{Name: "wire_msgs_per_req", Unit: "count", Better: "lower", Bound: 0.05, Clock: "virtual"},
	{Name: "host_events_per_req", Unit: "count", Better: "lower", Bound: 0.03, Clock: "count"},
	{Name: "host_allocs_per_req", Unit: "count", Better: "lower", Bound: 0.03, Clock: "host"},
	{Name: "host_peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15, Clock: "host"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Clock: "host"},
	// Wall-clock speed flips between two regimes a third apart on the
	// shared box, run to run and within runs, so ten runs spread by up
	// to 28 % — wider than any bound the driver accepts. It is measured,
	// printed, kept in result documents and judged by -compare, but not
	// reported to the driver; events and allocations per request above
	// are the parts of it that repeat.
	{Name: "host_req_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Clock: "host", Local: true},
}

// perLayer is reported by every workload with --trace 1. A metric of a
// layer the workload bypasses reads 0; that is the prediction, and the
// layer-separation gates in workloads.go check it.
var perLayer = []metricDef{
	// Workload-specific end-to-end figures. They cannot sit in endToEnd
	// because the driver wants every end-to-end metric from every
	// workload and never 0.
	{Name: "fail_share", Unit: "ratio", Better: "lower", Clock: "count", Moves: "any increase is a regression, on every workload"},
	{Name: "route.virt_p99_us_r50", Unit: "us", Better: "lower", Clock: "virtual", Moves: "route-open: p99 at half capacity"},
	{Name: "route.shed_share_r125", Unit: "ratio", Better: "lower", Clock: "count", Moves: "route-open: refused/offered at 125 % of capacity (floor 0.20)"},
	{Name: "route.slo_max_rate_rps", Unit: "1/s", Better: "higher", Clock: "virtual", Moves: "route-open: highest ladder rate with p99 <= 5 ms, no failure, no backlog"},
	{Name: "baseline.tax_speedup", Unit: "ratio", Better: "higher", Clock: "virtual", Moves: "faceverify: baseline p50 / FractOS p50 (paper 1.47)"},
	{Name: "baseline.tax_traffic_ratio", Unit: "ratio", Better: "higher", Clock: "virtual", Moves: "faceverify: baseline wire bytes / FractOS (paper 3x)"},

	// sim
	{Name: "sim.events_per_req", Unit: "count", Better: "lower", Clock: "count", Moves: "host_req_per_s on all workloads, most on invoke-null; no virt_*"},
	{Name: "sim.host_ns_per_event", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_req_per_s on all workloads"},
	{Name: "sim.ladder_dispatch_ns", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_req_per_s on all workloads"},
	{Name: "sim.ladder_switch_ns", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_req_per_s on all workloads"},
	{Name: "sim.ladder_timer_ns", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_req_per_s on route-open and invoke-lossy (timers)"},
	{Name: "sim.cpu_share", Unit: "ratio", Better: "lower", Clock: "host", Moves: "host_req_per_s on all workloads"},

	// wire
	{Name: "wire.msgs_per_req", Unit: "count", Better: "lower", Clock: "count", Moves: "host_req_per_s, host_allocs_per_req on invoke-*, route-open; ~0 effect on copy-bulk"},
	{Name: "wire.bytes_per_msg", Unit: "B", Better: "lower", Clock: "count", Moves: "wire_bytes_per_req on invoke-null"},
	{Name: "wire.ladder_roundtrip_ns", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_req_per_s on invoke-*, route-open"},
	{Name: "wire.ladder_allocs", Unit: "count", Better: "lower", Clock: "host", Moves: "host_allocs_per_req on invoke-*, route-open"},
	{Name: "wire.cpu_share", Unit: "ratio", Better: "lower", Clock: "host", Moves: "host_req_per_s on invoke-*, route-open"},

	// fabric
	{Name: "fabric.sends_per_req", Unit: "count", Better: "lower", Clock: "count", Moves: "host_req_per_s on invoke-*"},
	{Name: "fabric.xnode_msgs_per_req", Unit: "count", Better: "lower", Clock: "count", Moves: "wire_msgs_per_req on all workloads"},
	{Name: "fabric.xnode_ctrl_bytes_per_req", Unit: "B", Better: "lower", Clock: "count", Moves: "wire_bytes_per_req on invoke-*, route-open"},
	{Name: "fabric.xnode_data_bytes_per_req", Unit: "B", Better: "lower", Clock: "count", Moves: "wire_bytes_per_req on copy-bulk, faceverify"},
	{Name: "fabric.rdma_ops_per_req", Unit: "count", Better: "lower", Clock: "count", Moves: "virt_p50_us on copy-bulk (chunking); must be 0 on invoke-*, route-open"},
	{Name: "fabric.rdma_bytes_per_req", Unit: "B", Better: "lower", Clock: "count", Moves: "virt_goodput_rps on copy-bulk (bounce buffers double it)"},
	{Name: "fabric.virt_link_util", Unit: "ratio", Better: "higher", Clock: "virtual", Moves: "near 1 on copy-bulk: only fewer bytes or chunks can raise virt_goodput_rps"},
	{Name: "fabric.virt_goodput_mbps", Unit: "MB/s", Better: "higher", Clock: "virtual", Moves: "virt_goodput_rps on copy-bulk"},
	{Name: "fabric.virt_push_p50_us", Unit: "us", Better: "lower", Clock: "virtual", Moves: "virt_p50_us on copy-bulk; a push gain must not cost pull"},
	{Name: "fabric.virt_pull_p50_us", Unit: "us", Better: "lower", Clock: "virtual", Moves: "virt_p50_us on copy-bulk; a pull gain must not cost push"},
	{Name: "fabric.dropped_per_kreq", Unit: "count", Better: "lower", Clock: "count", Moves: "virt_p99_us on invoke-lossy; 0 elsewhere"},
	{Name: "fabric.delayed_per_kreq", Unit: "count", Better: "lower", Clock: "count", Moves: "0 on every workload (no jitter configured)"},
	{Name: "fabric.ladder_send_ns", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_req_per_s on invoke-null"},
	{Name: "fabric.ladder_send_allocs", Unit: "count", Better: "lower", Clock: "host", Moves: "host_allocs_per_req on invoke-null (ROADMAP: ~6 per one-way send)"},
	{Name: "fabric.ladder_rdma64k_ns", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_req_per_s on copy-bulk"},
	{Name: "fabric.virt_rdma_hold_us", Unit: "us", Better: "lower", Clock: "virtual", Moves: "residence ledger: virt_p50_us on copy-bulk"},
	{Name: "fabric.cpu_share", Unit: "ratio", Better: "lower", Clock: "host", Moves: "host_req_per_s on copy-bulk, invoke-*"},

	// cap
	{Name: "cap.live_entries_end", Unit: "count", Better: "lower", Clock: "count", Moves: "host_peak_rss_mb on invoke-*, route-open (reply caps accumulate)"},
	{Name: "cap.ladder_validate_ns", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_req_per_s on invoke-null; no virt_*"},
	{Name: "cap.cpu_share", Unit: "ratio", Better: "lower", Clock: "host", Moves: "host_req_per_s on invoke-null"},

	// core
	{Name: "core.syscalls_per_req", Unit: "count", Better: "lower", Clock: "count", Moves: "virt_p50_us, host_req_per_s on invoke-null"},
	{Name: "core.invokes_per_req", Unit: "count", Better: "lower", Clock: "count", Moves: "virt_p50_us on invoke-null (2 per Call today)"},
	{Name: "core.req_creates_per_req", Unit: "count", Better: "lower", Clock: "count", Moves: "virt_p50_us on invoke-null (1 per Call today)"},
	{Name: "core.cap_ops_per_req", Unit: "count", Better: "lower", Clock: "count", Moves: "virt_p50_us on invoke-null (1 per Call today)"},
	{Name: "core.copies_per_req", Unit: "count", Better: "lower", Clock: "count", Moves: "virt_p50_us on copy-bulk, faceverify"},
	{Name: "core.copy_bytes_per_req", Unit: "B", Better: "lower", Clock: "count", Moves: "virt_goodput_rps on copy-bulk"},
	{Name: "core.deliveries_per_req", Unit: "count", Better: "lower", Clock: "count", Moves: "host_req_per_s on invoke-*"},
	{Name: "core.backpressured_per_kreq", Unit: "count", Better: "lower", Clock: "count", Moves: "virt_p99_us on route-open"},
	{Name: "core.retransmits_per_kreq", Unit: "count", Better: "lower", Clock: "count", Moves: "virt_p99_us, virt_goodput_rps on invoke-lossy only; must be 0 on invoke-null"},
	{Name: "core.dedup_hits_per_kreq", Unit: "count", Better: "lower", Clock: "count", Moves: "virt_p99_us on invoke-lossy only"},
	{Name: "core.rpc_aborted_per_kreq", Unit: "count", Better: "lower", Clock: "count", Moves: "fail_share on invoke-lossy"},
	{Name: "core.send_failed_per_kreq", Unit: "count", Better: "lower", Clock: "count", Moves: "fail_share on every workload; must be 0"},
	{Name: "core.ladder_null_syscall_ns", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_req_per_s on invoke-null"},
	{Name: "core.virt_null_syscall_us", Unit: "us", Better: "lower", Clock: "virtual", Moves: "virt_p50_us on invoke-null (paper 3.00 us)"},
	{Name: "core.virt_hold_us", Unit: "us", Better: "lower", Clock: "virtual", Moves: "residence ledger: virt_p50_us on invoke-null"},
	{Name: "core.cpu_share", Unit: "ratio", Better: "lower", Clock: "host", Moves: "host_req_per_s on invoke-*"},

	// proc
	{Name: "proc.ladder_call_ns", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_req_per_s on invoke-null"},
	{Name: "proc.virt_unloaded_us", Unit: "us", Better: "lower", Clock: "virtual", Moves: "virt_p50_us on every closed-loop workload"},
	{Name: "proc.virt_hold_us", Unit: "us", Better: "lower", Clock: "virtual", Moves: "residence ledger: virt_p50_us on invoke-null"},
	{Name: "proc.cpu_share", Unit: "ratio", Better: "lower", Clock: "host", Moves: "host_req_per_s on invoke-*"},

	// services / route
	{Name: "route.calls", Unit: "count", Better: "lower", Clock: "count", Moves: "0 outside route-open"},
	{Name: "route.shed_per_kreq", Unit: "count", Better: "lower", Clock: "count", Moves: "fail_share, route.shed_share_r125 on route-open"},
	{Name: "route.failovers", Unit: "count", Better: "lower", Clock: "count", Moves: "virt_p99_us on route-open; 0 without faults"},
	{Name: "route.resolves", Unit: "count", Better: "lower", Clock: "count", Moves: "virt_p99_us on route-open"},
	{Name: "route.replica_depth_hwm", Unit: "count", Better: "lower", Clock: "count", Moves: "virt_p99_us on route-open"},
	{Name: "route.pick_imbalance", Unit: "ratio", Better: "lower", Clock: "count", Moves: "virt_p99_us, route.slo_max_rate_rps on route-open"},
	{Name: "route.ladder_do_ns", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_req_per_s on route-open"},
	{Name: "route.cpu_share", Unit: "ratio", Better: "lower", Clock: "host", Moves: "host_req_per_s on route-open"},
	{Name: "services.resolves_per_kreq", Unit: "count", Better: "lower", Clock: "count", Moves: "virt_p99_us on route-open"},
	{Name: "services.cpu_share", Unit: "ratio", Better: "lower", Clock: "host", Moves: "host_req_per_s on route-open"},

	// device / fs / app / baseline
	{Name: "device.gpu_launches_per_req", Unit: "count", Better: "lower", Clock: "count", Moves: "virt_goodput_rps on faceverify; 0 elsewhere"},
	{Name: "device.gpu_busy_share", Unit: "ratio", Better: "higher", Clock: "virtual", Moves: "near 1 on faceverify: GPU-bound, software cannot raise virt_goodput_rps"},
	{Name: "device.nvme_reads_per_req", Unit: "count", Better: "lower", Clock: "count", Moves: "virt_p50_us on faceverify"},
	{Name: "device.nvme_bytes_per_req", Unit: "B", Better: "lower", Clock: "count", Moves: "virt_p50_us on faceverify"},
	{Name: "device.virt_hold_us", Unit: "us", Better: "lower", Clock: "virtual", Moves: "residence ledger: bounds any software gain on faceverify"},
	{Name: "device.cpu_share", Unit: "ratio", Better: "lower", Clock: "host", Moves: "host_req_per_s on faceverify"},
	{Name: "fs.cpu_share", Unit: "ratio", Better: "lower", Clock: "host", Moves: "host_req_per_s on faceverify"},
	{Name: "app.virt_hold_us", Unit: "us", Better: "lower", Clock: "virtual", Moves: "residence ledger: virt_p50_us on invoke-*, route-open (server side)"},
	{Name: "app.cpu_share", Unit: "ratio", Better: "lower", Clock: "host", Moves: "host_req_per_s on faceverify"},
	{Name: "baseline.virt_p50_us", Unit: "us", Better: "lower", Clock: "virtual", Moves: "baseline.tax_speedup on faceverify"},
	{Name: "baseline.wire_bytes_per_req", Unit: "B", Better: "lower", Clock: "virtual", Moves: "baseline.tax_traffic_ratio on faceverify"},
	{Name: "baseline.wire_msgs_per_req", Unit: "count", Better: "lower", Clock: "virtual", Moves: "faceverify: the message half of the tax"},
	{Name: "baseline.model_err_speedup_pct", Unit: "%", Better: "lower", Clock: "virtual", Moves: "faceverify: |tax_speedup - 1.47| / 1.47"},
	{Name: "baseline.model_err_traffic_pct", Unit: "%", Better: "lower", Clock: "virtual", Moves: "faceverify: |tax_traffic_ratio - 3| / 3"},

	// load / testbed / host
	{Name: "load.virt_queue_us", Unit: "us", Better: "lower", Clock: "virtual", Moves: "virt_p99_us on route-open: loaded p50 minus unloaded"},
	{Name: "load.inflight_hwm", Unit: "count", Better: "lower", Clock: "count", Moves: "virt_p99_us on route-open"},
	{Name: "load.gen_lag_max_us", Unit: "us", Better: "lower", Clock: "virtual", Moves: "route-open: how late the open-loop generator ran"},
	{Name: "testbed.setup_events", Unit: "count", Better: "lower", Clock: "count", Moves: "setup_s on all workloads"},
	{Name: "testbed.setup_virt_ms", Unit: "ms", Better: "lower", Clock: "virtual", Moves: "setup_s on all workloads"},
	{Name: "host.cpu_us_per_req", Unit: "us", Better: "lower", Clock: "host", Moves: "host_req_per_s on all workloads"},
	{Name: "host.cores_used", Unit: "ratio", Better: "higher", Clock: "host", Moves: "what a parallel-kernel change moves; host_req_per_s"},
	{Name: "host.bytes_per_req", Unit: "B", Better: "lower", Clock: "host", Moves: "host_peak_rss_mb, host_req_per_s on all workloads"},
	{Name: "host.gc_cycles", Unit: "count", Better: "lower", Clock: "host", Moves: "host_req_per_s on all workloads"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower", Clock: "host", Moves: "host_req_per_s on all workloads"},
	{Name: "runtime.cpu_share", Unit: "ratio", Better: "lower", Clock: "host", Moves: "host_req_per_s: allocation and scheduling cost of all layers"},
	{Name: "other.cpu_share", Unit: "ratio", Better: "lower", Clock: "host", Moves: "benchmark's own handlers, load, testbed"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Clock: "host", Moves: "cost of tracing and profiling against the untraced segment"},
	{Name: "ladder.unattributed_pct", Unit: "%", Better: "lower", Clock: "host", Moves: "share of host ns per request the ladder does not explain"},
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is the run length the benchmark was sized for.
const runSeconds = 12

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{Name: w.name, Why: w.why})
	}
	for _, d := range endToEnd {
		if d.Local {
			continue
		}
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &b})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}
