package core_test

// Lease GC tests: abandoned Leased entries (monitor_delegatee
// children, §3.6) are expired by the background virtual-time GC, which
// fires the same failure-translation path a holder crash would —
// without the holder crashing and without a revocation storm.

import (
	"testing"

	"fractos/internal/core"
	"fractos/internal/proc"
	"fractos/internal/sim"
)

// leaseCluster is a deployment with the lease GC armed: leases expire
// 200 µs after installation, swept every core.DefaultLeaseGCInterval
// (1 ms).
func leaseCluster(nodes int, placement core.Placement) core.ClusterConfig {
	return core.ClusterConfig{
		Nodes:     nodes,
		Placement: placement,
		Ctrl:      core.Config{LeaseTTL: us(200)},
	}
}

// delegateLease hands cli a leased capability for a monitored request
// owned by srv, returning the lease and a pointer to the fired flag.
func delegateLease(t *testing.T, tk *sim.Task, srv, cli *proc.Process) (proc.Cap, *bool) {
	t.Helper()
	req, err := srv.RequestCreate(tk, 11, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fired := new(bool)
	if err := srv.MonitorDelegate(tk, req, func() { *fired = true }); err != nil {
		t.Fatal(err)
	}
	carrier, err := cli.RequestCreate(tk, 12, nil, nil)
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
	leased, ok := d.Cap(0)
	d.Done()
	if !ok {
		t.Fatal("no leased cap delivered")
	}
	return leased, fired
}

// TestLeaseGCExpiresAbandonedLease: a client that abandons its lease —
// alive, but never using or dropping it — is reaped by the GC: the
// delegator's monitor_delegate callback fires, the client's entry is
// purged, and the expiry is counted. Exercised in both deployment
// shapes: CtrlShared (owner-local lease, reaped by revokeLocal) and
// CtrlOnCPU across nodes (remote lease: local purge + CtrlRevoke to
// the owner).
func TestLeaseGCExpiresAbandonedLease(t *testing.T) {
	shapes := []struct {
		name      string
		placement core.Placement
	}{
		{"local", core.CtrlShared},
		{"remote", core.CtrlOnCPU},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			run(t, leaseCluster(2, shape.placement), func(tk *sim.Task, cl *core.Cluster) {
				srv := proc.Attach(cl, 0, "srv", 0)
				cli := proc.Attach(cl, 1, "cli", 0)
				leased, fired := delegateLease(t, tk, srv, cli)

				le, ok := cl.CtrlFor(1).EntryOf(cli.ID(), leased.ID())
				if !ok || !le.Leased || le.Expire == 0 {
					t.Fatalf("precondition: leased=%v expire=%d ok=%v", le.Leased, le.Expire, ok)
				}
				if *fired {
					t.Fatal("callback fired before the lease expired")
				}

				// Abandon the lease: TTL 200 µs + one sweep period + slack.
				tk.Sleep(2 * core.DefaultLeaseGCInterval)
				if !*fired {
					t.Error("monitor_delegate callback did not fire on lease expiry")
				}
				if _, ok := cl.CtrlFor(1).EntryOf(cli.ID(), leased.ID()); ok {
					t.Error("expired lease entry still resolves")
				}
				expired := int64(0)
				for _, c := range cl.Ctrls {
					expired += c.Metrics().LeasesExpired
				}
				if expired != 1 {
					t.Errorf("LeasesExpired = %d, want 1", expired)
				}
			})
		})
	}
}

// TestLeaseGCSparesActiveLifecycle: a lease the holder drops before
// the deadline is a normal release — the delegator hears about it
// (delegatee count reaches zero through the drop-side revocation), but
// the GC itself must reap nothing, and with no leases left its timer
// must go quiet (the deployment still drains: RunT would hang on a
// perpetually re-arming timer). The TTL outlasts two sweep periods and
// the holder drops the lease only after the first sweep, so that sweep
// sees a live, unexpired lease and must leave it alone.
func TestLeaseGCSparesActiveLifecycle(t *testing.T) {
	cfg := leaseCluster(2, core.CtrlShared)
	cfg.Ctrl.LeaseTTL = 3 * core.DefaultLeaseGCInterval
	run(t, cfg, func(tk *sim.Task, cl *core.Cluster) {
		srv := proc.Attach(cl, 0, "srv", 0)
		cli := proc.Attach(cl, 1, "cli", 0)
		leased, fired := delegateLease(t, tk, srv, cli)

		// One sweep runs while the lease is live.
		tk.Sleep(core.DefaultLeaseGCInterval * 3 / 2)
		if *fired {
			t.Error("GC reaped a live lease")
		}
		if _, ok := cl.CtrlFor(1).EntryOf(cli.ID(), leased.ID()); !ok {
			t.Error("live lease entry vanished after a sweep")
		}

		// Holder relinquishes the lease within the TTL.
		if err := cli.Revoke(tk, leased); err != nil {
			t.Error(err)
			return
		}
		tk.Sleep(2 * core.DefaultLeaseGCInterval)
		if !*fired {
			t.Error("delegator did not observe the voluntary release")
		}
		for _, c := range cl.Ctrls {
			if n := c.Metrics().LeasesExpired; n != 0 {
				t.Errorf("GC reaped %d leases despite voluntary release", n)
			}
		}
	})
}

// TestLeaseGCDisabledByDefault: with LeaseTTL unset, delegation
// installs no deadline and the GC never runs — the §3.6 translation
// then only fires through the failure detector, as before this
// subsystem existed.
func TestLeaseGCDisabledByDefault(t *testing.T) {
	run(t, core.ClusterConfig{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		srv := proc.Attach(cl, 0, "srv", 0)
		cli := proc.Attach(cl, 1, "cli", 0)
		leased, fired := delegateLease(t, tk, srv, cli)

		le, ok := cl.CtrlFor(1).EntryOf(cli.ID(), leased.ID())
		if !ok || le.Expire != 0 {
			t.Fatalf("lease stamped expire=%d with GC disabled", le.Expire)
		}
		tk.Sleep(us(2000))
		if *fired {
			t.Error("callback fired with the lease GC disabled")
		}
		if _, ok := cl.CtrlFor(1).EntryOf(cli.ID(), leased.ID()); !ok {
			t.Error("lease entry vanished with the GC disabled")
		}
	})
}

// TestLeaseGCCoalescesCleanup: expiring a whole batch of abandoned
// leases in one deployment produces batched cleanup broadcasts, not
// one per lease — the "no revocation storm" property. Every lease is
// reaped, every delegator callback fires, and the number of cleanup
// broadcasts stays far below the number of revoked objects.
func TestLeaseGCCoalescesCleanup(t *testing.T) {
	const clients = 8
	run(t, leaseCluster(3, core.CtrlShared), func(tk *sim.Task, cl *core.Cluster) {
		srv := proc.Attach(cl, 0, "srv", 0)
		fired := 0
		var leases []proc.Cap
		cli := proc.Attach(cl, 1, "cli", 0)
		for i := 0; i < clients; i++ {
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
			leases = append(leases, lease)
		}

		// Abandon them all; the GC reaps the batch.
		tk.Sleep(us(2000))
		if fired != clients {
			t.Errorf("%d delegator callbacks fired, want %d", fired, clients)
		}
		ctrl := cl.CtrlFor(0)
		m := ctrl.Metrics()
		if m.LeasesExpired != clients {
			t.Errorf("LeasesExpired = %d, want %d", m.LeasesExpired, clients)
		}
		if m.CleanupsSent >= m.Revocations {
			t.Errorf("cleanup broadcasts (%d) not coalesced below revocations (%d)",
				m.CleanupsSent, m.Revocations)
		}
		for _, lease := range leases {
			if _, ok := ctrl.EntryOf(cli.ID(), lease.ID()); ok {
				t.Error("expired lease entry still resolves")
			}
		}
	})
}
