package exp

import (
	"fmt"
	"sort"

	"fractos/internal/app/faceverify"
	"fractos/internal/core"
	"fractos/internal/fabric"
	"fractos/internal/load"
	"fractos/internal/proc"
	"fractos/internal/services"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/testbed/stacks"
)

// Chaos-fv: availability of the end-to-end face-verification pipeline
// under injected infrastructure faults (docs/FAULTS.md). Open-loop
// Poisson load (offered load does not back off when the system
// degrades) runs against the 4-node testbed while the fabric drops
// frames, partitions nodes, or a Controller crashes mid-run; every
// client call is wrapped in a proc.Retry policy. The table reports
// goodput, error rate, latency percentiles, the longest
// service-interruption window (MTTR proxy: maximum gap between
// consecutive successful completions), and the resilience machinery's
// own counters (frames the fabric dropped, retransmissions, dedup hits,
// aborted RPCs).

// chaosRate/chaosRequests keep each scenario around 120 ms of virtual
// time: enough to bracket a 20 ms disruption window with healthy
// periods on both sides.
const (
	chaosRate     = 1000.0
	chaosRequests = 120
)

const cms = sim.Time(1000 * 1000) // 1 ms of virtual time

// chaosScenario is one fault schedule applied to the standard
// face-verification deployment. Disruptions are scheduled relative to
// the workload's start (service deployment itself consumes virtual
// time, so offsets from the kernel's start would land inside deploy).
type chaosScenario struct {
	name        string
	faults      fabric.Faults
	heartbeat   bool     // run the NodeWatch heartbeat detector
	crashAt     sim.Time // crash the GPU node's Controller at this time
	partitionAt sim.Time // isolate the storage node at this time …
	healAt      sim.Time // … and heal at this one
}

func chaosScenarios() []chaosScenario {
	return []chaosScenario{
		{name: "no-fault"},
		{name: "drop-1%", faults: fabric.Faults{Drop: 0.01, Seed: 41}},
		{name: "drop-5%", faults: fabric.Faults{Drop: 0.05, Seed: 42}},
		// Isolate the storage node (node 2) for 20 ms mid-run: every
		// in-window request stalls on its DAX read until the heal.
		{name: "partition-20ms", faults: fabric.Faults{Drop: 0.01, Seed: 43},
			partitionAt: 30 * cms, healAt: 50 * cms},
		{name: "ctrl-crash", faults: fabric.Faults{Drop: 0.01, Seed: 44},
			heartbeat: true, crashAt: 30 * cms},
	}
}

// chaosResult is one scenario's measurements.
type chaosResult struct {
	st      *load.Stats
	maxGap  sim.Time // longest window with no successful completion
	retx    int64
	dedup   int64
	aborted int64
	faults  fabric.FaultStats
}

// chaosAppState is the currently deployed application stack plus its
// request set; on crash recovery a fresh state is swapped in (the
// "re-acquire capabilities" step the retry layer cannot perform).
type chaosAppState struct {
	fv   *stacks.FaceVerify
	reqs []*faceverify.Request
}

func runChaosScenario(sc chaosScenario) chaosResult {
	cfg := faceverify.Config{Batch: 64, Files: 8, Slots: 8}
	fv := &stacks.FaceVerify{Cfg: cfg}
	spec := appSpec(core.CtrlOnCPU, fv)
	spec.Chaos = sc.faults
	if sc.heartbeat {
		spec.Heartbeat = &services.WatchConfig{Every: 2 * cms, Suspect: 3, RebootAfter: 10 * cms}
	}

	var res chaosResult
	testbed.Run(spec, func(tk *sim.Task, d *testbed.Deployment) {
		var cur *chaosAppState
		if d.Watch != nil {
			d.Watch.Subscribe(func(e services.WatchEvent) {
				if e.Kind != services.WatchRecovered {
					return
				}
				// The Controller is back under a fresh epoch, but every
				// capability the old stack held is stale: redeploy the
				// application and regenerate its requests. New arrivals
				// (and retried aborted calls) use the new stack.
				d.K().Spawn("chaos-redeploy", func(t *sim.Task) {
					nfv := &stacks.FaceVerify{Cfg: cfg}
					nfv.Deploy(t, d)
					cur = &chaosAppState{fv: nfv, reqs: fvRequests(nfv, chaosRequests, cfg.Files, 9)}
				})
			})
		}
		cur = &chaosAppState{fv: fv, reqs: fvRequests(fv, chaosRequests, cfg.Files, 9)}
		if sc.crashAt > 0 {
			gpu := d.Cl.CtrlFor(1)
			d.K().After(sc.crashAt, func() { gpu.Crash() })
		}
		if sc.healAt > sc.partitionAt {
			net := d.Net()
			d.K().After(sc.partitionAt, func() { net.PartitionNodes([]int{faceverify.NodeStorage}) })
			d.K().After(sc.healAt, func() { net.HealPartitions() })
		}
		var succ []sim.Time
		start := tk.Now()
		res.st = load.Open{Rate: chaosRate, Requests: chaosRequests, Seed: 13}.Run(tk,
			func(wt *sim.Task, i int) error {
				// Per-request policy: enough backoff to bridge a 20 ms
				// disruption (the RPC layer's own retransmissions bridge
				// shorter ones underneath).
				pol := proc.Retry{Max: 8, Seed: int64(i)}
				err := pol.Do(wt, func(t *sim.Task) error {
					s := cur // re-read: recovery swaps the stack
					_, verr := s.fv.Verify(t, s.reqs[i])
					return verr
				})
				if err == nil {
					succ = append(succ, wt.Now())
				}
				return err
			})
		sort.Slice(succ, func(i, j int) bool { return succ[i] < succ[j] })
		prev := start
		for _, at := range succ {
			if at-prev > res.maxGap {
				res.maxGap = at - prev
			}
			prev = at
		}
		for _, c := range d.Cl.Ctrls {
			m := c.Metrics()
			res.retx += m.Retransmits
			res.dedup += m.DedupHits
			res.aborted += m.RPCAborted
		}
		res.faults = d.Net().FaultStats()
	})
	return res
}

// ChaosFaceVerify regenerates the availability table.
func ChaosFaceVerify() *Table {
	t := NewTable("chaos-fv",
		fmt.Sprintf("Face-verification availability under injected faults, %d open-loop arrivals at %.0f req/s",
			chaosRequests, chaosRate),
		"scenario", "goodput req/s", "err %", "p50 ms", "p99 ms", "mttr ms", "dropped", "retx", "dedup", "aborted")
	msf := func(d sim.Time) float64 { return float64(d) / 1e6 }
	for _, sc := range chaosScenarios() {
		r := runChaosScenario(sc)
		st := r.st
		errRate := 100 * float64(st.Errors) / float64(chaosRequests)
		t.AddRow(sc.name,
			fmt.Sprintf("%.0f", st.Throughput()),
			fmt.Sprintf("%.1f", errRate),
			fmt.Sprintf("%.3f", msf(st.Hist.P50())),
			fmt.Sprintf("%.3f", msf(st.Hist.P99())),
			fmt.Sprintf("%.1f", msf(r.maxGap)),
			fmt.Sprint(r.faults.Dropped), fmt.Sprint(r.retx), fmt.Sprint(r.dedup), fmt.Sprint(r.aborted))
		switch sc.name {
		case "no-fault":
			t.Metric("goodput-nofault", st.Throughput())
			t.Metric("err-nofault", float64(st.Errors))
		case "drop-5%":
			t.Metric("goodput-drop5", st.Throughput())
			t.Metric("err-drop5", float64(st.Errors))
			t.Metric("dropped-drop5", float64(r.faults.Dropped))
			t.Metric("retx-drop5", float64(r.retx))
		case "partition-20ms":
			t.Metric("err-partition", float64(st.Errors))
			t.Metric("mttr-partition-ms", msf(r.maxGap))
		case "ctrl-crash":
			t.Metric("err-crash", float64(st.Errors))
			t.Metric("mttr-crash-ms", msf(r.maxGap))
		}
	}
	t.Note("frame loss is absorbed by Controller retransmission + at-most-once dedup: goodput holds, errors stay 0")
	t.Note("a lost frame is resent one RTO (twice the smoothed round trip) later, so the tail stays within the no-fault row; retx above dropped is spurious resends")
	t.Note("during the partition every pending call probes the storage node once per 2 ms ceiling: retx rises, errors stay 0")
	t.Note("the 20 ms partition stalls storage-bound calls; client retries bridge it, so the dip shows up as MTTR, not errors")
	t.Note("the Controller crash voids an epoch of capabilities: in-window requests fail permanently (failure amplification),")
	t.Note("the heartbeat detector fences and reboots the Controller, and the app redeploys — MTTR spans detect+reboot+redeploy")
	return t
}
