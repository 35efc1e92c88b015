package exp

import (
	"fmt"

	"fractos/internal/assert"
	"fractos/internal/baseline"
	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/fabric"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/wire"
)

// rawPingPong measures one round trip of a minimal message between two
// raw fabric endpoints (the ibv_rc_pingpong reference of Table 3).
func rawPingPong(serverDomain fabric.Domain) sim.Time {
	var rtt sim.Time
	testbed.Run(testbed.Spec{Nodes: 1}, func(tk *sim.Task, d *testbed.Deployment) {
		client := baseline.NewPeer(d.Net(), "ping", fabric.Location{Node: 0, Domain: fabric.Host}, 0, nil)
		var server *baseline.Peer
		server = baseline.NewPeer(d.Net(), "pong", fabric.Location{Node: 0, Domain: serverDomain}, 0,
			func(baseline.Request) error { server.Reply(nil, false); return nil })
		start := tk.Now()
		if _, err := client.Call(tk, server.EP.ID, 1, nil, false); err != nil {
			assert.NoErr(err, "exp/micro")
		}
		rtt = tk.Now() - start
	})
	return rtt
}

// nullOpLatency measures the FractOS null syscall under a placement.
func nullOpLatency(p core.Placement) sim.Time {
	var lat sim.Time
	testbed.Run(testbed.Spec{Nodes: 1, Placement: p}, func(tk *sim.Task, d *testbed.Deployment) {
		app := d.Attach(0, "app", 0)
		start := tk.Now()
		if err := app.Null(tk); err != nil {
			assert.NoErr(err, "exp/micro")
		}
		lat = tk.Now() - start
	})
	return lat
}

// Table3 regenerates the null-operation latency table.
//
// Paper: raw loopback 2.42 µs (CPU) / 3.68 µs (sNIC); FractOS 3.00 µs
// (CPU) / 4.50 µs (sNIC).
func Table3() *Table {
	t := NewTable("table3", "Latency of a null FractOS operation vs raw loopback (µs)",
		"configuration", "latency (µs)", "paper (µs)")
	rawCPU := rawPingPong(fabric.Host)
	rawSNIC := rawPingPong(fabric.SNIC)
	nullCPU := nullOpLatency(core.CtrlOnCPU)
	nullSNIC := nullOpLatency(core.CtrlOnSNIC)
	t.AddRow("Raw loopback w/ server @ CPU", testbed.Us(rawCPU), "2.42")
	t.AddRow("Raw loopback w/ server @ sNIC", testbed.Us(rawSNIC), "3.68")
	t.AddRow("FractOS @ CPU", testbed.Us(nullCPU), "3.00")
	t.AddRow("FractOS @ sNIC", testbed.Us(nullSNIC), "4.50")
	t.Metric("null-cpu-us", float64(nullCPU)/1e3)
	t.Metric("null-snic-us", float64(nullSNIC)/1e3)
	return t
}

// copySizes are the transfer sizes swept in Figure 5.
var copySizes = []int{1, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}

// copyTime times one memory_copy of size bytes from node 0 to node 1
// of spec's cluster, issued on node 0 — or, a pull, the other way.
func copyTime(spec testbed.Spec, size int, pull bool) sim.Time {
	var lat sim.Time
	testbed.Run(spec, func(tk *sim.Task, d *testbed.Deployment) {
		src := d.Attach(0, "src", size)
		dst := d.Attach(1, "dst", size)
		srcCap, err := src.MemoryCreate(tk, 0, uint64(size), cap.MemRights)
		if err != nil {
			assert.NoErr(err, "exp/micro")
		}
		dstCapD, err := dst.MemoryCreate(tk, 0, uint64(size), cap.MemRights)
		if err != nil {
			assert.NoErr(err, "exp/micro")
		}
		dstCap, err := proc.GrantCap(dst, dstCapD, src)
		if err != nil {
			assert.NoErr(err, "exp/micro")
		}
		if pull {
			srcCap, dstCap = dstCap, srcCap
		}
		start := tk.Now()
		if err := src.MemoryCopy(tk, srcCap, dstCap); err != nil {
			assert.NoErr(err, "exp/micro")
		}
		lat = tk.Now() - start
	})
	return lat
}

// measureRawRDMA times a direct one-sided RDMA read between nodes —
// the best possible baseline of Figure 5 (§6.1 quotes 3.3 µs for 1 B).
func measureRawRDMA(size int) sim.Time {
	var p rdmaProbe
	testbed.Run(testbed.Spec{Nodes: 2}, func(tk *sim.Task, d *testbed.Deployment) {
		p.k = d.K()
		a := d.Net().AttachHandler("rdma-a", fabric.Location{Node: 0, Domain: fabric.Host}, size, &p)
		b := d.Net().AttachHandler("rdma-b", fabric.Location{Node: 1, Domain: fabric.Host}, size, &p)
		p.start = tk.Now()
		if _, err := d.Net().RDMAReadThen(&p, a.ID, 0, b.ID, 0, size); err != nil {
			assert.NoErr(err, "exp/micro")
		}
	})
	return p.done - p.start
}

// rdmaProbe is the raw read's two endpoints, to which no frame is sent,
// and its completion, which stamps the instant it ends.
type rdmaProbe struct {
	k           *sim.Kernel
	start, done sim.Time
}

func (p *rdmaProbe) Deliver(f *fabric.Frame) { f.Release() }
func (p *rdmaProbe) Fire()                   { p.done = p.k.Now() }

// Figure5 regenerates the single-transfer memory_copy throughput plot.
//
// Paper shape: raw RDMA >> FractOS for small sizes (1 B: 3.3 µs vs
// 12.7 µs CPU / 24.5 µs sNIC); double buffering closes the gap, full
// line rate by 256 KiB; "HW copies" (third-party RDMA) recovers raw
// performance even through the Controller.
func Figure5() *Table {
	t := NewTable("fig5", "Throughput of a single cross-node transfer (MB/s)",
		"size", "raw RDMA", "FractOS@CPU", "FractOS@sNIC", "HW copies")
	for _, size := range copySizes {
		raw := measureRawRDMA(size)
		cpu := copyTime(testbed.Spec{Nodes: 2}, size, false)
		snic := copyTime(testbed.Spec{Nodes: 2, Placement: core.CtrlOnSNIC}, size, false)
		hw := copyTime(testbed.Spec{Nodes: 2, Ctrl: core.Config{HWCopies: true}}, size, false)
		t.AddRow(testbed.SizeLabel(size), testbed.Mbps(size, raw), testbed.Mbps(size, cpu),
			testbed.Mbps(size, snic), testbed.Mbps(size, hw))
		if size == 1 {
			t.Note("1B latency: raw=%sµs cpu=%sµs snic=%sµs (paper: 3.3 / 12.7 / 24.5)",
				testbed.Us(raw), testbed.Us(cpu), testbed.Us(snic))
			t.Metric("copy1b-cpu-us", float64(cpu)/1e3)
			t.Metric("copy1b-snic-us", float64(snic)/1e3)
			t.Metric("copy1b-rdma-us", float64(raw)/1e3)
		}
		if size == 256<<10 {
			t.Metric("copy256k-cpu-mbps", testbed.MbpsVal(size, cpu))
			t.Metric("copy256k-rdma-mbps", testbed.MbpsVal(size, raw))
		}
	}
	return t
}

// invokeSizes are the argument sizes swept in Figure 6.
var invokeSizes = []int{8, 1 << 10, 16 << 10, 64 << 10}

// measureRPC times a two-way Request invocation with an argument
// payload, Requests exchanged ahead of time (as in §6.1).
func measureRPC(p core.Placement, nodes int, argSize int, nCaps int) sim.Time {
	var lat sim.Time
	testbed.Run(testbed.Spec{Nodes: nodes, Placement: p}, func(tk *sim.Task, d *testbed.Deployment) {
		srv := d.Attach(nodes-1, "srv", 0)
		cli := d.Attach(0, "cli", 4096)
		req, err := srv.RequestCreate(tk, 1, nil, nil)
		if err != nil {
			assert.NoErr(err, "exp/micro")
		}
		creq, err := proc.GrantCap(srv, req, cli)
		if err != nil {
			assert.NoErr(err, "exp/micro")
		}
		// Pre-created reply Request (slot 15) and delegated caps.
		reply, replyTag, err := cli.ReplyRequest(tk)
		if err != nil {
			assert.NoErr(err, "exp/micro")
		}
		var capArgs []proc.Arg
		for i := 0; i < nCaps; i++ {
			m, err := cli.MemoryCreate(tk, uint64(i*64), 64, cap.MemRights)
			if err != nil {
				assert.NoErr(err, "exp/micro")
			}
			capArgs = append(capArgs, proc.Arg{Slot: uint16(i), Cap: m})
		}
		capArgs = append(capArgs, proc.Arg{Slot: 15, Cap: reply})
		payload := make([]byte, argSize)

		srv.Serve("srv-loop", 1, func(_ *sim.Task, d *proc.Delivery) {
			if err := d.Reply(15, nil, nil); err != nil {
				assert.NoErr(err, "exp/micro")
			}
		})

		start := tk.Now()
		if _, err := cli.CallWith(tk, creq,
			[]wire.ImmArg{proc.BytesArg(0, payload)}, capArgs, reply, replyTag); err != nil {
			assert.NoErr(err, "exp/micro")
		}
		lat = tk.Now() - start
	})
	return lat
}

// Figure6 regenerates the Request-invocation latency plot.
//
// Paper: CPU deployment adds 1.41 µs handling both ways; crossing
// Controllers adds 4.41 µs more; sNIC adds 5.11 µs and 12.21 µs
// respectively; large immediate arguments cost memory-copy-like time.
func Figure6() *Table {
	t := NewTable("fig6", "Two-way Request invocation latency (µs)",
		"args", "CPU 1x", "CPU 2x", "sNIC 1x", "sNIC 2x")
	for _, size := range invokeSizes {
		c1 := measureRPC(core.CtrlOnCPU, 1, size, 0)
		c2 := measureRPC(core.CtrlOnCPU, 2, size, 0)
		s1 := measureRPC(core.CtrlOnSNIC, 1, size, 0)
		s2 := measureRPC(core.CtrlOnSNIC, 2, size, 0)
		t.AddRow(testbed.SizeLabel(size), testbed.Us(c1), testbed.Us(c2), testbed.Us(s1), testbed.Us(s2))
		if size == 8 {
			t.Metric("rpc8-cpu1x-us", float64(c1)/1e3)
			t.Metric("rpc8-cpu2x-us", float64(c2)/1e3)
			t.Metric("rpc8-snic2x-us", float64(s2)/1e3)
		}
	}
	t.Note("paper deltas: +1.41µs CPU handling, +4.41µs cross-controller; sNIC +5.11/+12.21µs")
	return t
}

// revocationTime measures revoking n delegated capabilities, either
// each with its own revocation-tree entry (selective, linear cost) or
// all behind one shared entry (one revocation total).
func revocationTime(n int, sharedTree bool) sim.Time {
	var lat sim.Time
	testbed.Run(testbed.Spec{Nodes: 2}, func(tk *sim.Task, d *testbed.Deployment) {
		owner := d.Attach(0, "owner", 4096)
		holder := d.Attach(1, "holder", 0)
		base, err := owner.MemoryCreate(tk, 0, 4096, cap.MemRights)
		if err != nil {
			assert.NoErr(err, "exp/micro")
		}
		var leases []proc.Cap
		if sharedTree {
			one, err := owner.Revtree(tk, base)
			if err != nil {
				assert.NoErr(err, "exp/micro")
			}
			for i := 0; i < n; i++ {
				if _, err := proc.GrantCap(owner, one, holder); err != nil {
					assert.NoErr(err, "exp/micro")
				}
			}
			leases = []proc.Cap{one}
		} else {
			for i := 0; i < n; i++ {
				lease, err := owner.Revtree(tk, base)
				if err != nil {
					assert.NoErr(err, "exp/micro")
				}
				if _, err := proc.GrantCap(owner, lease, holder); err != nil {
					assert.NoErr(err, "exp/micro")
				}
				leases = append(leases, lease)
			}
		}
		start := tk.Now()
		for _, l := range leases {
			if err := owner.Revoke(tk, l); err != nil {
				assert.NoErr(err, "exp/micro")
			}
		}
		lat = tk.Now() - start
	})
	return lat
}

// Figure7 regenerates the delegation and revocation plots.
func Figure7() *Table {
	t := NewTable("fig7", "Capability delegation (RPC+caps) and revocation (µs)",
		"n", "deleg CPU", "deleg sNIC", "revoke 1revtree/cap", "revoke shared revtree")
	base := measureRPC(core.CtrlOnCPU, 2, 8, 0)
	baseS := measureRPC(core.CtrlOnSNIC, 2, 8, 0)
	for _, n := range []int{1, 2, 4, 8} {
		dc := measureRPC(core.CtrlOnCPU, 2, 8, n)
		ds := measureRPC(core.CtrlOnSNIC, 2, 8, n)
		rv := revocationTime(n, false)
		rs := revocationTime(n, true)
		t.AddRow(fmt.Sprint(n), testbed.Us(dc), testbed.Us(ds), testbed.Us(rv), testbed.Us(rs))
		if n == 1 {
			t.Metric("deleg1-cpu-us", float64(dc-base)/1e3)
			t.Metric("deleg1-snic-us", float64(ds-baseS)/1e3)
		}
		if n == 8 {
			t.Metric("revoke8-individual-us", float64(rv)/1e3)
			t.Metric("revoke8-shared-us", float64(rs)/1e3)
		}
	}
	t.Note("per-cap delegation slope (paper: ~2.4µs CPU, ~3.8µs sNIC per capability)")
	t.Note("individual revocation is linear in n; the shared revocation tree is flat (§6.1)")
	return t
}
