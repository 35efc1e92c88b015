package exp

import (
	"fmt"

	"fractos/internal/app/faceverify"
	"fractos/internal/assert"
	"fractos/internal/core"
	"fractos/internal/fabric"
	"fractos/internal/load"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/testbed/stacks"
	"fractos/internal/wire"
)

// appSpec returns the 4-node face-verification testbed spec used by
// every end-to-end experiment (Figures 2, 12, 13 and the scaling
// sweep).
func appSpec(placement core.Placement, fv *stacks.FaceVerify) testbed.Spec {
	return testbed.Spec{Nodes: 4, Placement: placement, Services: []testbed.Service{fv}}
}

// fvRequests makes n requests for fv's database from one source seeded
// with seed; request i reads database file i mod files.
func fvRequests(fv *stacks.FaceVerify, n, files int, seed int64) []*faceverify.Request {
	rng := testbed.Rand(seed)
	reqs := make([]*faceverify.Request, n)
	for i := range reqs {
		reqs[i] = faceverify.MakeRequest(fv.DB, i%files, fv.Cfg.Batch, rng)
	}
	return reqs
}

// fvClosed runs clients closed-loop clients of perClient requests each
// against the face-verification testbed and checks every verdict.
// Client c's j-th request is number c*perClient+j of one set drawn
// from seed, each on a database file of its own.
func fvClosed(placement core.Placement, cfg faceverify.Config, useBaseline bool,
	clients, perClient int, seed int64) *load.Stats {
	var st *load.Stats
	fv := &stacks.FaceVerify{Cfg: cfg, Baseline: useBaseline}
	testbed.Run(appSpec(placement, fv), func(tk *sim.Task, d *testbed.Deployment) {
		n := clients * perClient
		reqs := fvRequests(fv, n, n, seed)
		st = load.Closed{Clients: clients, PerClient: perClient}.Run(tk,
			func(t *sim.Task, c, seq int) error {
				r := reqs[c*perClient+seq]
				out, err := fv.Verify(t, r)
				if err == nil && !r.CheckResults(out) {
					assert.Failf("exp/app: wrong verification verdicts")
				}
				return err
			})
		if st.Errors > 0 {
			assert.Failf("exp/app: %d of %d requests failed", st.Errors, n)
		}
	})
	return st
}

// Figure12 regenerates the end-to-end latency comparison.
//
// Paper: FractOS is ~47% faster end to end; the baseline pays three
// network traversals of the image data plus rCUDA's per-call tax; the
// Shared-HAL deployment sits between the per-node CPU and sNIC ones.
func Figure12() *Table {
	t := NewTable("fig12", "Face-verification request latency (ms)",
		"batch", "FractOS@CPU", "FractOS@sNIC", "Shared HAL", "Baseline", "base/CPU")
	for _, batch := range []int{1, 8, 32, 64, 128} {
		cfg := faceverify.Config{Batch: batch, Files: 4, Slots: 1}
		lat := func(p core.Placement, useBaseline bool) sim.Time {
			return fvClosed(p, cfg, useBaseline, 1, cfg.Files, 5).Elapsed() / sim.Time(cfg.Files)
		}
		fc := lat(core.CtrlOnCPU, false)
		fsn := lat(core.CtrlOnSNIC, false)
		fsh := lat(core.CtrlShared, false)
		bl := lat(core.CtrlOnCPU, true)
		t.AddRow(fmt.Sprint(batch), testbed.Ms(fc), testbed.Ms(fsn), testbed.Ms(fsh), testbed.Ms(bl),
			fmt.Sprintf("%.2fx", float64(bl)/float64(fc)))
		if batch == 32 {
			t.Metric("lat32-fractos-ms", float64(fc)/1e6)
			t.Metric("lat32-baseline-ms", float64(bl)/1e6)
			t.Metric("speedup32", float64(bl)/float64(fc))
		}
	}
	t.Note("paper: FractOS accelerates the application by ~47%% (baseline/FractOS ≈ 1.5x)")
	return t
}

// Figure13 regenerates the end-to-end throughput comparison.
func Figure13() *Table {
	t := NewTable("fig13", "Face-verification throughput (req/s), batch 64",
		"inflight", "FractOS@CPU", "FractOS@sNIC", "Shared HAL", "Baseline")
	for _, inflight := range []int{1, 2, 4, 8} {
		cfg := faceverify.Config{Batch: 64, Files: 8, Slots: inflight}
		tput := func(p core.Placement, useBaseline bool) float64 {
			return fvClosed(p, cfg, useBaseline, inflight, 4, 6).Throughput()
		}
		fc := tput(core.CtrlOnCPU, false)
		fsn := tput(core.CtrlOnSNIC, false)
		fsh := tput(core.CtrlShared, false)
		bl := tput(core.CtrlOnCPU, true)
		t.AddRow(fmt.Sprint(inflight),
			fmt.Sprintf("%.0f", fc), fmt.Sprintf("%.0f", fsn),
			fmt.Sprintf("%.0f", fsh), fmt.Sprintf("%.0f", bl))
		if inflight == 4 {
			t.Metric("tput4-fractos", fc)
			t.Metric("tput4-baseline", bl)
		}
	}
	t.Note("paper: baseline throughput is bottlenecked by rCUDA; with 4 in flight the GPU becomes FractOS's bottleneck")
	return t
}

// Figure2 regenerates the traffic analysis: per-request cross-node
// messages and bytes for the centralized and distributed designs. Only
// traffic that traverses the switch is counted in the totals
// (Process↔Controller loopback queues are node-local); the class
// columns count local/cross-node messages by wire.Type.Purpose.
func Figure2() *Table {
	t := NewTable("fig2", "Per-request network traffic, face verification (batch 32)",
		append([]string{"system", "data transfers", "ctrl msgs", "total msgs", "KB on wire"}, wire.Purposes...)...)
	cfg := faceverify.Config{Batch: 32, Files: 4, Slots: 1}
	measure := func(name, mode string) fabric.Stats {
		var per fabric.Stats
		fv := &stacks.FaceVerify{Cfg: cfg, Baseline: mode == "baseline"}
		testbed.Run(appSpec(core.CtrlOnCPU, fv), func(tk *sim.Task, d *testbed.Deployment) {
			verify := fv.Verify
			if mode == "ring" {
				if err := fv.App.EnableRing(tk); err != nil {
					assert.NoErr(err, "exp/app")
				}
				verify = fv.App.RingVerify
			}
			reqs := fvRequests(fv, cfg.Files, cfg.Files, 7)
			var st *load.Stats
			c := countTraffic(d.Net(), func() {
				st = load.Closed{Clients: 1, PerClient: len(reqs)}.Run(tk,
					func(t *sim.Task, _, seq int) error {
						_, err := verify(t, reqs[seq])
						return err
					})
			})
			if st.Errors > 0 {
				assert.Failf("exp/app: %d fig2 requests failed", st.Errors)
			}
			n := int64(len(reqs))
			per = fabric.Stats{
				CrossNodeMsgs:     (c.transfers + c.ctrl) / n,
				CrossNodeBytes:    c.bytes / n,
				CrossNodeCtrlMsgs: c.ctrl / n,
				CrossNodeDataMsgs: c.transfers / n,
			}
			row := []string{name, fmt.Sprint(per.CrossNodeDataMsgs), fmt.Sprint(per.CrossNodeCtrlMsgs),
				fmt.Sprint(per.CrossNodeMsgs), fmt.Sprintf("%.1f", float64(per.CrossNodeBytes)/1024)}
			for _, lx := range c.purposes {
				row = append(row, fmt.Sprintf("%d/%d", lx[0]/n, lx[1]/n))
			}
			t.AddRow(row...)
		})
		return per
	}
	fr := measure("FractOS (distributed)", "fractos")
	measure("FractOS (fig-2 ring, output to storage)", "ring")
	bl := measure("Baseline (centralized)", "baseline")
	ratio := func(a, b int64) string { return fmt.Sprintf("%.2fx", float64(a)/float64(b)) }
	t.AddRow("reduction",
		ratio(bl.CrossNodeDataMsgs, fr.CrossNodeDataMsgs),
		ratio(bl.CrossNodeCtrlMsgs, fr.CrossNodeCtrlMsgs),
		ratio(bl.CrossNodeMsgs, fr.CrossNodeMsgs),
		ratio(bl.CrossNodeBytes, fr.CrossNodeBytes))
	t.Metric("bytes-reduction", float64(bl.CrossNodeBytes)/float64(fr.CrossNodeBytes))
	t.Metric("datamsg-reduction", float64(bl.CrossNodeDataMsgs)/float64(fr.CrossNodeDataMsgs))
	t.Metric("msg-reduction", float64(bl.CrossNodeMsgs)/float64(fr.CrossNodeMsgs))
	t.Note("paper (Figure 2 analysis): 2.5x fewer data transfers, 1.6x fewer messages; §1: 3x traffic reduction")
	t.Note("class columns: local/cross-node messages by purpose (data: RDMA transfers); FractOS's include the")
	t.Note("per-use owner validations that the paper's schematic count omits")
	t.Note("the ring row writes verdicts to the output SSD (Figure 2 verbatim), including a read-back check;")
	t.Note("a baseline doing the same would add an NFS write (+2 messages, +verdict bytes)")
	return t
}
