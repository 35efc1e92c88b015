package core_test

import (
	"strings"
	"testing"

	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/wire"
)

// TestMetricsCountOperations drives one of each operation class and
// checks the Controller's counters.
func TestMetricsCountOperations(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		ctrl0 := cl.CtrlFor(0)
		a := proc.Attach(cl, 0, "a", 4096)
		b := proc.Attach(cl, 0, "b", 4096)

		if err := a.Null(tk); err != nil {
			t.Fatal(err)
		}
		src, _ := a.MemoryCreate(tk, 0, 256, cap.MemRights)
		dstB, _ := b.MemoryCreate(tk, 0, 256, cap.MemRights)
		dst, _ := proc.GrantCap(b, dstB, a)
		if err := a.MemoryCopy(tk, src, dst); err != nil {
			t.Fatal(err)
		}
		req, _ := a.RequestCreate(tk, 1, nil, nil)
		if err := a.Invoke(tk, req, nil, nil); err != nil {
			t.Fatal(err)
		}
		d, _ := a.Receive(tk)
		d.Done()
		lease, _ := a.Revtree(tk, src)
		if err := a.Revoke(tk, lease); err != nil {
			t.Fatal(err)
		}
		tk.Sleep(100 * 1000)

		m := ctrl0.Metrics()
		checks := map[string][2]int64{
			"NullOps":        {m.NullOps, 1},
			"MemOps":         {m.MemOps, 2},
			"Copies":         {m.Copies, 1},
			"CopyBytes":      {m.CopyBytes, 256},
			"ReqCreates":     {m.ReqCreates, 1},
			"Invokes":        {m.Invokes, 1},
			"DeliveriesSent": {m.DeliveriesSent, 1},
			"Revocations":    {m.Revocations, 1},
			"CleanupsSent":   {m.CleanupsSent, 1},
		}
		for name, v := range checks {
			if v[0] != v[1] {
				t.Errorf("%s = %d, want %d", name, v[0], v[1])
			}
		}
		// CapOps: revtree + revoke.
		if m.CapOps != 2 {
			t.Errorf("CapOps = %d, want 2", m.CapOps)
		}
		if !strings.Contains(m.String(), "copy=1(256B)") {
			t.Errorf("String() = %q", m.String())
		}
	})
}

// TestMetricsBackpressureAndQuota exercises the refusal counters.
func TestMetricsBackpressureAndQuota(t *testing.T) {
	cfg := testbed.Spec{Nodes: 1}
	cfg.Ctrl.Window = 1
	cfg.Ctrl.CapQuota = 2
	run(t, cfg, func(tk *sim.Task, cl *core.Cluster) {
		srv := proc.Attach(cl, 0, "srv", 0)
		cli := proc.Attach(cl, 0, "cli", 4096)
		req, _ := srv.RequestCreate(tk, 1, nil, nil)
		creq, _ := proc.GrantCap(srv, req, cli)
		for i := 0; i < 3; i++ {
			if err := cli.Invoke(tk, creq, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		tk.Sleep(50 * 1000)
		m := cl.CtrlFor(0).Metrics()
		if m.Backpressured != 2 {
			t.Errorf("Backpressured = %d, want 2 (window 1, 3 invokes)", m.Backpressured)
		}
		// Exhaust cli's quota (2 entries: creq + one create).
		if _, err := cli.MemoryCreate(tk, 0, 64, cap.MemRights); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.MemoryCreate(tk, 64, 64, cap.MemRights); err == nil {
			t.Fatal("expected quota error")
		}
		if m := cl.CtrlFor(0).Metrics(); m.QuotaRejected != 1 {
			t.Errorf("QuotaRejected = %d, want 1", m.QuotaRejected)
		}
		for i := 0; i < 3; i++ { // each Done sends the next queued delivery
			d, _ := srv.Receive(tk)
			d.Done()
		}
	})
}

// TestMetricsStaleCounter: using a capability after its owner rebooted
// increments StaleRejected at the rejecting controller.
func TestMetricsStaleCounter(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		srv := proc.Attach(cl, 1, "srv", 0)
		cli := proc.Attach(cl, 0, "cli", 0)
		req, _ := srv.RequestCreate(tk, 1, nil, nil)
		creq, _ := proc.GrantCap(srv, req, cli)
		ctrl1 := cl.CtrlFor(1)
		ctrl1.Crash()
		ctrl1.Reboot()
		// Invoke immediately, racing the epoch broadcast: either the
		// eager purge removed the entry (NoCap) or the stale check
		// fired — both are §3.6-conformant.
		err := cli.Invoke(tk, creq, nil, nil)
		if err == nil {
			t.Fatal("stale invoke succeeded")
		}
		tk.Sleep(100 * 1000)
		m0 := cl.CtrlFor(0).Metrics()
		if m0.StaleRejected == 0 && m0.EntriesPurged == 0 {
			// The epoch purge path counts via PurgeRefs in peerEpoch,
			// which is not part of EntriesPurged; accept StaleRejected
			// or a vanished entry.
			if _, ok := cl.CtrlFor(0).EntryOf(cli.ID(), creq.ID()); ok {
				t.Error("stale entry survived with no rejection recorded")
			}
		}
	})
}

// TestFootprintBudget models §4's memory accounting: a Controller
// managing a handful of Processes fits comfortably in a BlueField's
// 16 GB.
func TestFootprintBudget(t *testing.T) {
	run(t, testbed.Spec{Nodes: 3, Placement: core.CtrlOnSNIC}, func(tk *sim.Task, cl *core.Cluster) {
		ctrl := cl.CtrlFor(0)
		for i := 0; i < 4; i++ {
			p := proc.Attach(cl, 0, "p", 4096)
			if _, err := p.MemoryCreate(tk, 0, 64, cap.MemRights); err != nil {
				t.Fatal(err)
			}
		}
		f := ctrl.Footprint()
		if f.ProcQueueBytes != 4*64<<20 {
			t.Errorf("proc queues = %d, want 4×64MB", f.ProcQueueBytes)
		}
		if f.PeerQueueBytes != 2*64<<20 {
			t.Errorf("peer queues = %d, want 2×64MB (two peers)", f.PeerQueueBytes)
		}
		if f.CapSpaceBytes != 4*40 {
			t.Errorf("cap space = %d, want 4 entries × 40B", f.CapSpaceBytes)
		}
		if f.ObjectBytes != 4*24 {
			t.Errorf("objects = %d, want 4 × 24B", f.ObjectBytes)
		}
		if total := f.Total(); total > 16<<30 {
			t.Errorf("footprint %d exceeds a BlueField's 16GB", total)
		}
	})
}

// TestInvokesRefusedWhereDecided: a refused invocation is counted once,
// by the Controller that refuses it. a on node 0 invokes b's Request on
// node 1 three times: passing a Memory capability without Grant, which
// its own Controller refuses; passing one it may grant, which is
// delivered; and writing the Request's preset immediate, write-once,
// which the owner refuses.
func TestInvokesRefusedWhereDecided(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		a, b := proc.Attach(cl, 0, "a", 4096), proc.Attach(cl, 1, "b", 0)
		req, _ := b.RequestCreate(tk, 1, []wire.ImmArg{proc.U64Arg(0, 0)}, nil)
		areq, _ := proc.GrantCap(b, req, a)
		mem, _ := a.MemoryCreate(tk, 0, 64, cap.MemRights)
		noGrant, _ := a.MemoryDiminish(tk, mem, 0, 64, cap.Grant)
		refused := func() [2]int64 {
			return [2]int64{cl.CtrlFor(0).Metrics().InvokesRefused, cl.CtrlFor(1).Metrics().InvokesRefused}
		}
		if err := a.Invoke(tk, areq, nil, []proc.Arg{{Slot: 0, Cap: noGrant}}); !wire.IsStatus(err, wire.StatusPerm) || refused() != [2]int64{1, 0} {
			t.Errorf("an argument without Grant: %v, refused %v; want StatusPerm, [1 0]", err, refused())
		}
		if err := a.Invoke(tk, areq, nil, []proc.Arg{{Slot: 0, Cap: mem}}); err != nil || refused() != [2]int64{1, 0} {
			t.Errorf("a grantable argument: %v, refused %v; want delivered, [1 0]", err, refused())
		}
		if err := a.Invoke(tk, areq, []wire.ImmArg{proc.U64Arg(0, 1)}, nil); !wire.IsStatus(err, wire.StatusImmutable) || refused() != [2]int64{1, 1} {
			t.Errorf("a preset immediate written: %v, refused %v; want StatusImmutable, [1 1]", err, refused())
		}
	})
}
