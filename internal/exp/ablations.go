package exp

import (
	"fmt"

	"fractos/internal/assert"
	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/load"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
)

// AblationDoubleBuffer compares memory_copy with and without double
// buffering across sizes, pushing and pulling (DESIGN.md §6, ablation
// 2). Double buffering overlaps each chunk's write-out with the next
// chunk's read, and a pull's reads with each other, so it should
// approach 2x for large transfers.
func AblationDoubleBuffer() *Table {
	t := NewTable("abl-dbuf", "memory_copy: double vs single buffering (MB/s)",
		"copy", "size", "double", "single", "gain")
	for _, pull := range []bool{false, true} {
		dir, key := "push", "gain-1m"
		if pull {
			dir, key = "pull", "pull-gain-1m"
		}
		for _, size := range []int{16 << 10, 64 << 10, 256 << 10, 1 << 20} {
			dl := copyTime(testbed.Spec{Nodes: 2}, size, pull)
			sl := copyTime(testbed.Spec{Nodes: 2, Ctrl: core.Config{SingleBuffer: true}}, size, pull)
			t.AddRow(dir, testbed.SizeLabel(size), testbed.Mbps(size, dl), testbed.Mbps(size, sl),
				fmt.Sprintf("%.2fx", float64(sl)/float64(dl)))
			if size == 1<<20 {
				t.Metric(key, float64(sl)/float64(dl))
			}
		}
	}
	t.Note("§6.1: FractOS uses double buffering for transfers larger than 16 KiB")
	return t
}

// AblationWindow sweeps the congestion-control window (outstanding
// deliveries per Process, §4) against a service whose handlers take
// 50 µs: a window of 1 serializes the service; larger windows expose
// its parallelism.
func AblationWindow() *Table {
	t := NewTable("abl-window", "Congestion window vs service throughput",
		"window", "RPCs/s")
	const handlers = 8
	const handleTime = 50 * sim.Time(1000)
	const clients = 8
	const callsPerClient = 8
	for _, window := range []int{1, 2, 8, 32} {
		var elapsed sim.Time
		spec := testbed.Spec{Nodes: 2, Ctrl: core.Config{Window: window}}
		testbed.Run(spec, func(tk *sim.Task, d *testbed.Deployment) {
			srv := d.Attach(1, "srv", 0)
			req, err := srv.RequestCreate(tk, 1, nil, nil)
			if err != nil {
				assert.NoErr(err, "exp/ablations")
			}
			// Parallel handlers, each sleeping handleTime per request.
			srv.Serve("handler", handlers, func(ht *sim.Task, d *proc.Delivery) {
				ht.Sleep(handleTime)
				d.Reply(0, nil, nil)
			})
			// Each client attaches and takes its grant in its first
			// request.
			creqs := make([]proc.Cap, clients)
			clis := make([]*proc.Process, clients)
			st := load.Closed{Clients: clients, PerClient: callsPerClient}.Run(tk,
				func(ct *sim.Task, c, seq int) error {
					if seq == 0 {
						clis[c] = d.Attach(0, fmt.Sprintf("cli%d", c), 0)
						creq, err := proc.GrantCap(srv, req, clis[c])
						if err != nil {
							assert.NoErr(err, "exp/ablations")
						}
						creqs[c] = creq
					}
					if _, err := clis[c].Call(ct, creqs[c], nil, nil, 0); err != nil {
						assert.NoErr(err, "exp/ablations")
					}
					return nil
				})
			elapsed = st.Elapsed()
		})
		rate := float64(clients*callsPerClient) / (float64(elapsed) / 1e9)
		t.AddRow(fmt.Sprint(window), fmt.Sprintf("%.0f", rate))
		t.Metric(fmt.Sprintf("w%d", window), rate)
	}
	t.Note("back-pressure limits outstanding deliveries; a window of 1 serializes the provider")
	return t
}

// AblationRevtreeDepth measures revocation latency against the depth
// of the revocation tree being torn down: the cascade is local to the
// owning Controller, so even deep trees revoke in near-constant
// network cost.
func AblationRevtreeDepth() *Table {
	t := NewTable("abl-revtree", "Revocation latency vs revocation-tree size",
		"objects", "revoke (µs)")
	for _, depth := range []int{1, 8, 64, 256} {
		var lat sim.Time
		testbed.Run(testbed.Spec{Nodes: 2}, func(tk *sim.Task, d *testbed.Deployment) {
			owner := d.Attach(0, "owner", 4096)
			base, err := owner.MemoryCreate(tk, 0, 4096, cap.MemRights)
			if err != nil {
				assert.NoErr(err, "exp/ablations")
			}
			root, err := owner.Revtree(tk, base)
			if err != nil {
				assert.NoErr(err, "exp/ablations")
			}
			cur := root
			for i := 1; i < depth; i++ {
				if cur, err = owner.Revtree(tk, cur); err != nil {
					assert.NoErr(err, "exp/ablations")
				}
			}
			start := tk.Now()
			if err := owner.Revoke(tk, root); err != nil {
				assert.NoErr(err, "exp/ablations")
			}
			lat = tk.Now() - start
		})
		t.AddRow(fmt.Sprint(depth), testbed.Us(lat))
		t.Metric(fmt.Sprintf("d%d-us", depth), float64(lat)/1e3)
	}
	t.Note("the subtree cascade happens inside the owning Controller; no per-object network messages")
	return t
}

// AblationPlacement compares Controller placements on the null op and
// a small cross-node RPC, including the Shared-HAL deployment.
func AblationPlacement() *Table {
	t := NewTable("abl-placement", "Controller placement (µs)",
		"placement", "null op", "8B RPC 2 nodes")
	for _, p := range []core.Placement{core.CtrlOnCPU, core.CtrlOnSNIC, core.CtrlShared} {
		null := nullOpLatency(p)
		rpc := measureRPC(p, 2, 8, 0)
		t.AddRow(p.String(), testbed.Us(null), testbed.Us(rpc))
		t.Metric(p.String()+"-null-us", float64(null)/1e3)
	}
	t.Note("Shared HAL: a single remote Controller serves every Process (Figures 12/13)")
	return t
}
