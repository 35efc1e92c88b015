package core_test

// Black-box Controller tests: deployment shapes, quotas, failure
// semantics, and protocol robustness, exercised through libfractos.

import (
	"testing"

	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/wire"
)

func us(f float64) sim.Time { return testbed.USec(f) }

// run executes fn as the test's main task on a fresh testbed and runs
// the simulation to completion; testbed.RunT fails the test if a record
// is left lent, a pending call's among them.
func run(t *testing.T, spec testbed.Spec, fn func(tk *sim.Task, cl *core.Cluster)) {
	t.Helper()
	testbed.RunT(t, spec, func(tk *sim.Task, d *testbed.Deployment) { fn(tk, d.Cl) })
}

func TestClusterPlacements(t *testing.T) {
	cases := []struct {
		p         core.Placement
		wantCtrls int
	}{
		{core.CtrlOnCPU, 3},
		{core.CtrlOnSNIC, 3},
		{core.CtrlShared, 1},
	}
	for _, c := range cases {
		cl := core.NewCluster(core.ClusterConfig{Nodes: 3, Placement: c.p})
		if len(cl.Ctrls) != c.wantCtrls {
			t.Errorf("%v: %d controllers, want %d", c.p, len(cl.Ctrls), c.wantCtrls)
		}
		// CtrlFor always resolves.
		for n := 0; n < 3; n++ {
			if cl.CtrlFor(n) == nil {
				t.Errorf("%v: no controller for node %d", c.p, n)
			}
		}
		if c.p == core.CtrlShared && cl.CtrlFor(2) != cl.Ctrls[0] {
			t.Error("shared placement must route every node to the single controller")
		}
		cl.K.Run()
		cl.K.Shutdown()
	}
}

func TestClusterDefaultsToThreeNodes(t *testing.T) {
	cl := core.NewCluster(core.ClusterConfig{})
	if len(cl.Ctrls) != 3 {
		t.Errorf("default nodes = %d, want 3 (the paper's testbed)", len(cl.Ctrls))
	}
	cl.K.Shutdown()
}

func TestGrantErrors(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		a := proc.Attach(cl, 0, "a", 64)
		b := proc.Attach(cl, 1, "b", 0)
		if _, err := core.Grant(cl.CtrlFor(0), a.ID(), 999, cl.CtrlFor(1), b.ID()); err == nil {
			t.Error("grant of nonexistent cid succeeded")
		}
		m, _ := a.MemoryCreate(tk, 0, 64, cap.MemRights)
		if _, err := core.Grant(cl.CtrlFor(0), a.ID(), m.ID(), cl.CtrlFor(1), 999); err == nil {
			t.Error("grant to nonexistent process succeeded")
		}
	})
}

func TestCapQuotaEnforced(t *testing.T) {
	cfg := testbed.Spec{Nodes: 1}
	cfg.Ctrl.CapQuota = 3
	run(t, cfg, func(tk *sim.Task, cl *core.Cluster) {
		p := proc.Attach(cl, 0, "p", 4096)
		var caps []proc.Cap
		for i := 0; i < 3; i++ {
			c, err := p.MemoryCreate(tk, uint64(i*64), 64, cap.MemRights)
			if err != nil {
				t.Fatalf("create %d under quota: %v", i, err)
			}
			caps = append(caps, c)
		}
		if _, err := p.MemoryCreate(tk, 1024, 64, cap.MemRights); !wire.IsStatus(err, wire.StatusQuota) {
			t.Errorf("over-quota create: err = %v, want quota", err)
		}
		// The rolled-back object must not leak.
		objs := cl.CtrlFor(0).ObjectCount()
		if objs != 3 {
			t.Errorf("object count = %d after rollback, want 3", objs)
		}
		// Dropping an entry frees quota.
		if err := p.Drop(tk, caps[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := p.MemoryCreate(tk, 1024, 64, cap.MemRights); err != nil {
			t.Errorf("create after drop failed: %v", err)
		}
	})
}

// TestRefusedDerivationLeavesNoObject: a memory_diminish, a derivation
// of a Request or a cap_create_revtree refused at the capability quota
// leaves no object behind at the owner — nothing could ever name it.
// The owner discards its own; a holder on another node, refused after
// the owner made the object, has the owner revoke it.
func TestRefusedDerivationLeavesNoObject(t *testing.T) {
	cfg := testbed.Spec{Nodes: 2}
	cfg.Ctrl.CapQuota = 2
	run(t, cfg, func(tk *sim.Task, cl *core.Cluster) {
		owner := proc.Attach(cl, 0, "owner", 4096)
		holder := proc.Attach(cl, 1, "holder", 0)
		mem, err := owner.MemoryCreate(tk, 0, 4096, cap.MemRights)
		if err != nil {
			t.Error(err)
			return
		}
		req, err := owner.RequestCreate(tk, 1, nil, nil) // fills the owner's quota
		if err != nil {
			t.Error(err)
			return
		}
		hmem, err := proc.GrantCap(owner, mem, holder)
		if err != nil {
			t.Error(err)
			return
		}
		hreq, err := proc.GrantCap(owner, req, holder) // fills the holder's
		if err != nil {
			t.Error(err)
			return
		}
		ctrl := cl.CtrlFor(0)
		base := ctrl.ObjectCount()
		for _, c := range []struct {
			name     string
			p        *proc.Process
			mem, req proc.Cap
		}{{"owner", owner, mem, req}, {"remote holder", holder, hmem, hreq}} {
			for i := 0; i < 5; i++ {
				_, errDim := c.p.MemoryDiminish(tk, c.mem, 0, 64, 0)
				_, errDer := c.p.Derive(tk, c.req, nil, nil)
				_, errRev := c.p.Revtree(tk, c.mem)
				for _, err := range []error{errDim, errDer, errRev} {
					if !wire.IsStatus(err, wire.StatusQuota) {
						t.Errorf("%s at quota, derivation %d: err = %v, want quota", c.name, i, err)
					}
				}
			}
			tk.Sleep(us(100)) // the revokes land
			if got := ctrl.ObjectCount(); got != base {
				t.Errorf("%s refused 15 derivations: the owner has %d objects, want %d", c.name, got, base)
			}
		}
	})
}

func TestCapQuotaBlocksDelegation(t *testing.T) {
	cfg := testbed.Spec{Nodes: 2}
	cfg.Ctrl.CapQuota = 2
	run(t, cfg, func(tk *sim.Task, cl *core.Cluster) {
		srv := proc.Attach(cl, 0, "srv", 0)
		cli := proc.Attach(cl, 1, "cli", 4096)
		req, err := srv.RequestCreate(tk, 1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.RequestCreate(tk, 2, nil, nil); err != nil {
			t.Fatal(err) // fills srv's quota of 2
		}
		creq, err := proc.GrantCap(srv, req, cli)
		if err != nil {
			t.Fatal(err)
		}
		m, err := cli.MemoryCreate(tk, 0, 64, cap.MemRights)
		if err != nil {
			t.Fatal(err)
		}
		// An invocation delegating a capability needs a free slot in
		// the provider's space — there is none.
		err = cli.Invoke(tk, creq, nil, []proc.Arg{{Slot: 0, Cap: m}})
		if !wire.IsStatus(err, wire.StatusQuota) {
			t.Errorf("over-quota delegation: err = %v, want quota", err)
		}
		// Argument-free invocations still work.
		if err := cli.Invoke(tk, creq, nil, nil); err != nil {
			t.Errorf("no-arg invoke failed: %v", err)
		}
	})
}

// TestCleanupBroadcastPurgesThirdParty: revoking an object purges the
// stale entry at a third Controller that only ever held a delegated
// capability.
func TestCleanupBroadcastPurgesThirdParty(t *testing.T) {
	run(t, testbed.Spec{Nodes: 3}, func(tk *sim.Task, cl *core.Cluster) {
		owner := proc.Attach(cl, 0, "owner", 4096)
		third := proc.Attach(cl, 2, "third", 0)
		m, _ := owner.MemoryCreate(tk, 0, 64, cap.MemRights)
		granted, err := proc.GrantCap(owner, m, third)
		if err != nil {
			t.Fatal(err)
		}
		if err := owner.Revoke(tk, m); err != nil {
			t.Fatal(err)
		}
		tk.Sleep(us(100)) // let the cleanup broadcast land
		// The third party's entry is gone entirely (not just dead).
		if err := third.Drop(tk, granted); !wire.IsStatus(err, wire.StatusNoCap) {
			t.Errorf("drop of purged entry: err = %v, want no-capability", err)
		}
	})
}

// TestGrantClearsDelegationFlags: the trusted bootstrap path
// (core.Grant) copies the object reference but must start a fresh
// delegation edge — the source entry's Monitored and Leased flags
// describe the edge it travelled over, not the object, and copying
// them would tie the recipient's bootstrap capability to another
// client's lease lifetime (see the core.Grant doc comment).
func TestGrantClearsDelegationFlags(t *testing.T) {
	run(t, testbed.Spec{Nodes: 3}, func(tk *sim.Task, cl *core.Cluster) {
		svc := proc.Attach(cl, 0, "svc", 0)
		cli := proc.Attach(cl, 1, "cli", 0)
		boot := proc.Attach(cl, 2, "boot", 0)

		// A monitored source entry: svc watches delegations of req.
		req, err := svc.RequestCreate(tk, 1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.MonitorDelegate(tk, req, func() {}); err != nil {
			t.Fatal(err)
		}
		src, ok := cl.CtrlFor(0).EntryOf(svc.ID(), req.ID())
		if !ok || !src.Monitored {
			t.Fatalf("precondition: source entry monitored=%v ok=%v", src.Monitored, ok)
		}
		cid, err := core.Grant(cl.CtrlFor(0), svc.ID(), req.ID(), cl.CtrlFor(2), boot.ID())
		if err != nil {
			t.Fatal(err)
		}
		got, ok := cl.CtrlFor(2).EntryOf(boot.ID(), cid)
		if !ok {
			t.Fatal("granted entry missing")
		}
		if got.Monitored || got.Leased {
			t.Errorf("grant propagated delegation flags: monitored=%v leased=%v",
				got.Monitored, got.Leased)
		}

		// A leased source entry: deliver the monitored capability
		// through an invocation (the monitor_delegate path), so the
		// client holds a lease, then bootstrap-grant the lease onward.
		carrier, err := cli.RequestCreate(tk, 9, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		carrierAtSvc, err := proc.GrantCap(cli, carrier, svc)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Invoke(tk, carrierAtSvc, nil, []proc.Arg{{Slot: 0, Cap: req}}); err != nil {
			t.Fatal(err)
		}
		d, ok := cli.Receive(tk)
		if !ok {
			t.Fatal("delivery lost")
		}
		lease, ok := d.Cap(0)
		d.Done()
		if !ok {
			t.Fatal("no lease delivered")
		}
		le, ok := cl.CtrlFor(1).EntryOf(cli.ID(), lease.ID())
		if !ok || !le.Leased {
			t.Fatalf("precondition: delivered entry leased=%v ok=%v", le.Leased, ok)
		}
		cid2, err := core.Grant(cl.CtrlFor(1), cli.ID(), lease.ID(), cl.CtrlFor(2), boot.ID())
		if err != nil {
			t.Fatal(err)
		}
		got2, ok := cl.CtrlFor(2).EntryOf(boot.ID(), cid2)
		if !ok {
			t.Fatal("granted lease entry missing")
		}
		if got2.Monitored || got2.Leased {
			t.Errorf("grant propagated lease flags: monitored=%v leased=%v",
				got2.Monitored, got2.Leased)
		}
	})
}

// TestCrashAbortsInFlightCalls: syscalls waiting on a crashed peer
// Controller complete with an error after the epoch announcement
// instead of hanging forever.
func TestCrashAbortsInFlightCalls(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		srv := proc.Attach(cl, 1, "srv", 0)
		cli := proc.Attach(cl, 0, "cli", 0)
		req, _ := srv.RequestCreate(tk, 1, nil, nil)
		creq, _ := proc.GrantCap(srv, req, cli)

		// Crash controller 1, then issue an invoke that needs it.
		cl.CtrlFor(1).Crash()
		errF := sim.NewFuture[error]()
		cl.K.Spawn("invoker", func(it *sim.Task) {
			errF.Set(cli.Invoke(it, creq, nil, nil))
		})
		tk.Sleep(us(50))
		// Reboot: the epoch broadcast must abort the pending call.
		cl.CtrlFor(1).Reboot()
		err, werr := errF.WaitTimeout(tk, us(500))
		if werr != nil {
			t.Fatal("invoke hung after controller crash+reboot")
		}
		if err == nil {
			t.Fatal("invoke to crashed controller succeeded")
		}
	})
}

// TestProcessesUntrustedBySendingCtrlMessages: a malicious Process that
// sends Controller-protocol messages is ignored — it cannot forge
// derivations or revocations.
func TestProcessesUntrustedBySendingCtrlMessages(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		victim := proc.Attach(cl, 0, "victim", 4096)
		m, _ := victim.MemoryCreate(tk, 0, 64, cap.MemRights)
		entry, ok := cl.CtrlFor(0).EntryOf(victim.ID(), m.ID())
		if !ok {
			t.Fatal("no entry")
		}
		// The attacker forges a Controller revoke for the victim's
		// object, injecting it through its own Process endpoint.
		attacker := proc.Attach(cl, 0, "attacker", 0)
		cl.Net.Send(attacker.Endpoint(), cl.CtrlFor(0).EndpointID(),
			&wire.CtrlRevoke{Token: 1, Src: 99, From: entry.Ref})
		tk.Sleep(us(100))
		// The victim's capability must still be alive.
		dst, _ := victim.MemoryCreate(tk, 64, 64, cap.MemRights)
		if err := victim.MemoryCopy(tk, m, dst); err != nil {
			t.Errorf("forged ctrl message revoked a capability: %v", err)
		}
	})
}

// TestForgedAckIgnored: a Process (or any non-peer endpoint) sending
// CtrlAck messages must not be able to resolve the Controller's
// pending inter-Controller calls with attacker-chosen results.
func TestForgedAckIgnored(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		srv := proc.Attach(cl, 1, "srv", 0)
		cli := proc.Attach(cl, 0, "cli", 0)
		req, _ := srv.RequestCreate(tk, 1, nil, nil)
		creq, _ := proc.GrantCap(srv, req, cli)

		// Flood controller 0 with forged acks for plausible tokens
		// from a non-peer endpoint, racing a real invocation.
		attackerEP := cl.Net.Attach("attacker", cl.CtrlFor(0).Loc(), 0)
		for tok := uint64(1); tok < 32; tok++ {
			cl.Net.Send(attackerEP.ID, cl.CtrlFor(0).EndpointID(),
				&wire.CtrlAck{Token: tok, Status: wire.StatusPerm})
		}
		if err := cli.Invoke(tk, creq, nil, nil); err != nil {
			t.Fatalf("forged acks corrupted a real invocation: %v", err)
		}
		got := sim.NewFuture[*proc.Delivery]()
		cl.K.Spawn("receive", func(rt *sim.Task) {
			d, _ := srv.Receive(rt)
			got.Set(d)
		})
		d, err := got.WaitTimeout(tk, us(200))
		if err != nil {
			t.Fatal("delivery lost")
		}
		d.Done()
	})
}

// TestUnknownCapRejected: using invalid cids fails cleanly everywhere.
func TestUnknownCapRejected(t *testing.T) {
	run(t, testbed.Spec{Nodes: 1}, func(tk *sim.Task, cl *core.Cluster) {
		p := proc.Attach(cl, 0, "p", 64)
		bogus := p.CapFromDelivered(wire.DeliveredCap{Cid: 12345, Kind: cap.KindRequest, Rights: cap.All})
		if err := p.Invoke(tk, bogus, nil, nil); !wire.IsStatus(err, wire.StatusNoCap) {
			t.Errorf("invoke: %v", err)
		}
		if err := p.Revoke(tk, bogus); !wire.IsStatus(err, wire.StatusNoCap) {
			t.Errorf("revoke: %v", err)
		}
		if _, err := p.Revtree(tk, bogus); !wire.IsStatus(err, wire.StatusNoCap) {
			t.Errorf("revtree: %v", err)
		}
		if _, err := p.MemoryDiminish(tk, bogus, 0, 1, 0); !wire.IsStatus(err, wire.StatusNoCap) {
			t.Errorf("diminish: %v", err)
		}
	})
}

// TestDoubleFailProcessIdempotent: failing a Process twice is safe.
func TestDoubleFailProcessIdempotent(t *testing.T) {
	run(t, testbed.Spec{Nodes: 1}, func(tk *sim.Task, cl *core.Cluster) {
		p := proc.Attach(cl, 0, "p", 64)
		if !cl.CtrlFor(0).FailProcess(p.ID()) {
			t.Fatal("first fail rejected")
		}
		if cl.CtrlFor(0).FailProcess(p.ID()) {
			t.Fatal("second fail accepted")
		}
		if cl.CtrlFor(0).FailProcess(9999) {
			t.Fatal("failing unknown process accepted")
		}
	})
}

// TestObjectCountStableAcrossChurn: create/revoke cycles do not leak
// owner-side objects.
func TestObjectCountStableAcrossChurn(t *testing.T) {
	run(t, testbed.Spec{Nodes: 1}, func(tk *sim.Task, cl *core.Cluster) {
		p := proc.Attach(cl, 0, "p", 4096)
		base := cl.CtrlFor(0).ObjectCount()
		for i := 0; i < 20; i++ {
			m, err := p.MemoryCreate(tk, 0, 64, cap.MemRights)
			if err != nil {
				t.Fatal(err)
			}
			lease, err := p.Revtree(tk, m)
			if err != nil {
				t.Fatal(err)
			}
			_ = lease
			if err := p.Revoke(tk, m); err != nil {
				t.Fatal(err)
			}
		}
		tk.Sleep(us(100))
		if got := cl.CtrlFor(0).ObjectCount(); got != base {
			t.Errorf("object count = %d after churn, want %d", got, base)
		}
	})
}

// TestRemoteRevtree: cap_create_revtree on a capability whose object
// lives at a peer Controller — one message to the owner creates the
// child; revoking the child is selective, exactly like the local path.
func TestRemoteRevtree(t *testing.T) {
	run(t, testbed.Spec{Nodes: 3}, func(tk *sim.Task, cl *core.Cluster) {
		owner := proc.Attach(cl, 0, "owner", 4096)
		holder := proc.Attach(cl, 1, "holder", 4096)
		sibling := proc.Attach(cl, 2, "sibling", 4096)

		mem, _ := owner.MemoryCreate(tk, 0, 64, cap.MemRights)
		held, _ := proc.GrantCap(owner, mem, holder)

		// The holder derives its own revocable lease — remotely, since
		// the object is owned by controller 0.
		lease, err := holder.Revtree(tk, held)
		if err != nil {
			t.Fatalf("remote revtree: %v", err)
		}
		sibLease, err := holder.Revtree(tk, held)
		if err != nil {
			t.Fatal(err)
		}
		granted, _ := proc.GrantCap(holder, sibLease, sibling)

		dst, _ := holder.MemoryCreate(tk, 0, 64, cap.MemRights)
		if err := holder.MemoryCopy(tk, lease, dst); err != nil {
			t.Fatalf("lease unusable: %v", err)
		}
		// Revoke one lease (again a remote revoke): the other survives.
		if err := holder.Revoke(tk, lease); err != nil {
			t.Fatalf("remote revoke: %v", err)
		}
		if err := holder.MemoryCopy(tk, lease, dst); err == nil {
			t.Fatal("revoked remote lease still usable")
		}
		sdst, _ := sibling.MemoryCreate(tk, 0, 64, cap.MemRights)
		if err := sibling.MemoryCopy(tk, granted, sdst); err != nil {
			t.Fatalf("sibling lease broken by selective revoke: %v", err)
		}
		// The parent capability is untouched.
		odst, _ := owner.MemoryCreate(tk, 128, 64, cap.MemRights)
		if err := owner.MemoryCopy(tk, mem, odst); err != nil {
			t.Fatalf("parent broken: %v", err)
		}
	})
}

// TestRemoteRevtreeOfDeadObject: deriving from a revoked remote object
// fails cleanly.
func TestRemoteRevtreeOfDeadObject(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		owner := proc.Attach(cl, 0, "owner", 4096)
		holder := proc.Attach(cl, 1, "holder", 0)
		mem, _ := owner.MemoryCreate(tk, 0, 64, cap.MemRights)
		held, _ := proc.GrantCap(owner, mem, holder)
		if err := owner.Revoke(tk, mem); err != nil {
			t.Fatal(err)
		}
		// Race the cleanup broadcast: either the entry is already
		// purged (no-capability) or the owner rejects (revoked).
		if _, err := holder.Revtree(tk, held); err == nil {
			t.Fatal("revtree of revoked remote object succeeded")
		}
	})
}

// TestCrashDownState: Down reflects Crash/Reboot, and epochs advance.
func TestCrashDownState(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		ctrl := cl.CtrlFor(1)
		if ctrl.Down() {
			t.Fatal("fresh controller reports down")
		}
		e0 := ctrl.Epoch()
		ctrl.Crash()
		if !ctrl.Down() {
			t.Fatal("crashed controller reports up")
		}
		ctrl.Crash() // idempotent
		ctrl.Reboot()
		if ctrl.Down() {
			t.Fatal("rebooted controller reports down")
		}
		ctrl.Reboot() // reboot of a live controller is a no-op
		if ctrl.Epoch() != e0+1 {
			t.Fatalf("epoch = %d, want %d", ctrl.Epoch(), e0+1)
		}
	})
}

// TestProcFailureWithDerivedObjects: a Process that owns a parent and
// derived views dies — the whole family is revoked once, without
// double-processing the descendants.
func TestProcFailureWithDerivedObjects(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		victim := proc.Attach(cl, 0, "victim", 4096)
		holder := proc.Attach(cl, 1, "holder", 4096)
		mem, _ := victim.MemoryCreate(tk, 0, 128, cap.MemRights)
		view, err := victim.MemoryDiminish(tk, mem, 0, 64, 0)
		if err != nil {
			t.Fatal(err)
		}
		hView, _ := proc.GrantCap(victim, view, holder)
		hMem, _ := proc.GrantCap(victim, mem, holder)

		base := cl.CtrlFor(0).ObjectCount()
		_ = base
		cl.CtrlFor(0).FailProcess(victim.ID())
		tk.Sleep(300 * 1000)

		dst, _ := holder.MemoryCreate(tk, 0, 128, cap.MemRights)
		if err := holder.MemoryCopy(tk, hView, dst); err == nil {
			t.Fatal("derived view survived owner failure")
		}
		if err := holder.MemoryCopy(tk, hMem, dst); err == nil {
			t.Fatal("parent object survived owner failure")
		}
		if got := cl.CtrlFor(0).ObjectCount(); got != 0 {
			t.Fatalf("object count = %d after failure cleanup, want 0", got)
		}
	})
}

// TestHolderFailureCoalescesCleanup: a Process that fails holding a
// batch of leases (monitor_delegatee children, §3.6) has every one
// revoked, and every delegator's callback fires, but the revocations
// leave in batched cleanup broadcasts, not one per revoked object: the
// "no revocation storm" property.
func TestHolderFailureCoalescesCleanup(t *testing.T) {
	const leases = 8
	run(t, testbed.Spec{Nodes: 3, Placement: core.CtrlShared}, func(tk *sim.Task, cl *core.Cluster) {
		srv := proc.Attach(cl, 0, "srv", 0)
		cli := proc.Attach(cl, 1, "cli", 0)
		fired := 0
		var held []proc.Cap
		for i := 0; i < leases; i++ {
			req, err := srv.RequestCreate(tk, uint64(20+i), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.MonitorDelegate(tk, req, func() { fired++ }); err != nil {
				t.Fatal(err)
			}
			carrier, err := cli.RequestCreate(tk, uint64(120+i), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			carrierSrv, err := proc.GrantCap(cli, carrier, srv)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Invoke(tk, carrierSrv, nil, []proc.Arg{{Slot: 0, Cap: req}}); err != nil {
				t.Fatal(err)
			}
			d, ok := cli.Receive(tk)
			if !ok {
				t.Fatal("delegation delivery lost")
			}
			lease, ok := d.Cap(0)
			d.Done()
			if !ok {
				t.Fatal("no leased cap delivered")
			}
			held = append(held, lease)
		}

		ctrl := cl.CtrlFor(0)
		ctrl.FailProcess(cli.ID())
		tk.Sleep(us(2000))
		if fired != leases {
			t.Errorf("%d delegator callbacks fired, want %d", fired, leases)
		}
		m := ctrl.Metrics()
		if m.CleanupsSent >= m.Revocations {
			t.Errorf("cleanup broadcasts (%d) not coalesced below revocations (%d)",
				m.CleanupsSent, m.Revocations)
		}
		for _, lease := range held {
			if _, ok := ctrl.EntryOf(cli.ID(), lease.ID()); ok {
				t.Error("revoked lease entry still resolves")
			}
		}
	})
}
