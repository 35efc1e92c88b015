package services

import (
	"testing"

	"fractos/internal/core"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

func runCluster(t *testing.T, fn func(tk *sim.Task, cl *core.Cluster)) {
	t.Helper()
	cl := core.NewCluster(core.ClusterConfig{Nodes: 3})
	done := false
	cl.K.Spawn("main", func(tk *sim.Task) { fn(tk, cl); done = true })
	cl.K.Run()
	cl.K.Shutdown()
	if !done {
		t.Fatal("test did not complete (deadlock?)")
	}
}

func startRegistry(t *testing.T, tk *sim.Task, cl *core.Cluster) *Registry {
	t.Helper()
	reg := NewRegistry(cl, 0)
	if err := reg.Start(tk); err != nil {
		t.Fatal(err)
	}
	return reg
}

func connect(t *testing.T, tk *sim.Task, reg *Registry, p *proc.Process) *Client {
	t.Helper()
	c, err := reg.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRegisterThenResolve(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		reg := startRegistry(t, tk, cl)
		// A service on node 1 registers its root Request.
		svc := proc.Attach(cl, 1, "svc", 0)
		svcCl := connect(t, tk, reg, svc)
		root, err := svc.RequestCreate(tk, 99, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svcCl.Register(tk, "svc.root", root, 1); err != nil {
			t.Fatal(err)
		}

		// An app on node 2 resolves it and invokes it.
		app := proc.Attach(cl, 2, "app", 0)
		appCl := connect(t, tk, reg, app)
		got, err := appCl.Resolve(tk, "svc.root")
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Invoke(tk, got, nil, nil); err != nil {
			t.Fatalf("invoke resolved cap: %v", err)
		}
		d, ok := svc.Receive(tk)
		if !ok || d.Tag != 99 {
			t.Fatalf("delivery = %+v ok=%v", d, ok)
		}
		d.Done()
	})
}

func TestResolveMissingName(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		reg := startRegistry(t, tk, cl)
		app := proc.Attach(cl, 1, "app", 0)
		appCl := connect(t, tk, reg, app)
		_, err := appCl.Resolve(tk, "ghost")
		if err == nil {
			t.Fatal("resolve of unregistered name succeeded")
		}
		if !wire.IsStatus(err, wire.StatusUnknownObj) {
			t.Fatalf("resolve error = %v, want StatusUnknownObj", err)
		}
		// An unknown name resolves to an *empty set*, not an error —
		// clients racing a service's first registration retry through
		// their balancer.
		s, err := appCl.ResolveSet(tk, "ghost")
		if err != nil {
			t.Fatalf("resolve-set of unknown name: %v", err)
		}
		if len(s.Members) != 0 {
			t.Fatalf("resolve-set of unknown name: %d members", len(s.Members))
		}
	})
}

// TestNameLengthOverflowRejected: a name length for which 16+length
// wraps is refused like any other bad name by every registry operation,
// and the registry goes on serving.
func TestNameLengthOverflowRejected(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		reg := startRegistry(t, tk, cl)
		app := proc.Attach(cl, 1, "app", 0)
		c := connect(t, tk, reg, app)
		imms := []wire.ImmArg{proc.U64Arg(8, 1<<63-8), proc.BytesArg(16, []byte("svc"))}
		for _, root := range []proc.Cap{c.register, c.lookup, c.deregister, c.resolveSet} {
			d, err := app.Call(tk, root, imms, nil, SlotCont)
			if err != nil {
				t.Error(err)
				return
			}
			if st := d.Status(); st != wire.StatusBadArg {
				t.Errorf("status = %v, want bad-arg", st)
			}
		}
		if _, err := c.Resolve(tk, "ghost"); !wire.IsStatus(err, wire.StatusUnknownObj) {
			t.Errorf("resolve after the overflow: %v, want StatusUnknownObj", err)
		}
	})
}

// TestRegistryLegs: a name's (MaxMembers+1)-th Register is refused
// with StatusQuota, and Resolve answers with the member of the lowest
// id among several — not the newest — after a deregistration as well.
// Each row registers members (the i-th a Request of tag 100+i),
// deregisters the first few, registers one more, and resolves.
func TestRegistryLegs(t *testing.T) {
	for _, tc := range []struct {
		name             string
		members, dropped int
		full             bool // the Register after the drops is refused with StatusQuota
		wantResolvedTag  uint64
	}{
		{"quota", MaxMembers, 0, true, 100},
		{"lowest-id", 3, 1, false, 101},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
				reg := startRegistry(t, tk, cl)
				svc := proc.Attach(cl, 1, "svc", 0)
				svcCl := connect(t, tk, reg, svc)
				register := func(tag uint64) (uint64, error) {
					root, err := svc.RequestCreate(tk, tag, nil, nil)
					if err != nil {
						return 0, err
					}
					return svcCl.Register(tk, "svc", root, 1)
				}
				var ids []uint64
				for i := range tc.members {
					id, err := register(uint64(100 + i))
					if err != nil {
						t.Error(err)
						return
					}
					ids = append(ids, id)
				}
				for _, id := range ids[:tc.dropped] {
					if err := svcCl.Deregister(tk, "svc", id); err != nil {
						t.Error(err)
						return
					}
				}
				switch _, err := register(uint64(100 + tc.members)); {
				case tc.full && !wire.IsStatus(err, wire.StatusQuota):
					t.Errorf("register into a set of %d: %v, want StatusQuota", tc.members, err)
				case !tc.full && err != nil:
					t.Errorf("register: %v", err)
				}

				app := proc.Attach(cl, 2, "app", 0)
				got, err := connect(t, tk, reg, app).Resolve(tk, "svc")
				if err == nil {
					err = app.Invoke(tk, got, nil, nil)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if d, ok := svc.Receive(tk); !ok || d.Tag != tc.wantResolvedTag {
					t.Errorf("resolve reached %+v, want the Request of tag %d", d, tc.wantResolvedTag)
				}
			})
		})
	}
}

func TestReplicaSetMembership(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		reg := startRegistry(t, tk, cl)
		svc1 := proc.Attach(cl, 1, "svc1", 0)
		svc2 := proc.Attach(cl, 2, "svc2", 0)
		cl1 := connect(t, tk, reg, svc1)
		cl2 := connect(t, tk, reg, svc2)
		r1, _ := svc1.RequestCreate(tk, 7, nil, nil)
		r2, _ := svc2.RequestCreate(tk, 7, nil, nil)
		id1, err := cl1.Register(tk, "svc", r1, 1)
		if err != nil {
			t.Fatal(err)
		}
		id2, err := cl2.Register(tk, "svc", r2, 2)
		if err != nil {
			t.Fatal(err)
		}
		if id1 == id2 {
			t.Fatalf("member ids collide: %d", id1)
		}

		app := proc.Attach(cl, 0, "app", 0)
		appCl := connect(t, tk, reg, app)
		s, err := appCl.ResolveSet(tk, "svc")
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Members) != 2 {
			t.Fatalf("members = %d, want 2", len(s.Members))
		}
		if s.Members[0].ID != id1 || s.Members[0].Node != 1 ||
			s.Members[1].ID != id2 || s.Members[1].Node != 2 {
			t.Fatalf("members = %+v", s.Members)
		}
		v1 := s.Version

		// Deregister removes the member and bumps the version.
		if err := cl1.Deregister(tk, "svc", id1); err != nil {
			t.Fatal(err)
		}
		s, err = appCl.ResolveSet(tk, "svc")
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Members) != 1 || s.Members[0].ID != id2 {
			t.Fatalf("after deregister: members = %+v", s.Members)
		}
		if s.Version <= v1 {
			t.Fatalf("version did not advance: %d -> %d", v1, s.Version)
		}

		// Double deregister is a permanent UnknownObj.
		err = cl1.Deregister(tk, "svc", id1)
		if !wire.IsStatus(err, wire.StatusUnknownObj) {
			t.Fatalf("double deregister = %v, want StatusUnknownObj", err)
		}
	})
}

// TestByePrunesMembership: a replica that exits gracefully disappears
// from its set without a Deregister round-trip, via the revocation
// monitor the registry installs at register time.
func TestByePrunesMembership(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		reg := startRegistry(t, tk, cl)
		svc := proc.Attach(cl, 1, "svc", 0)
		svcCl := connect(t, tk, reg, svc)
		root, _ := svc.RequestCreate(tk, 7, nil, nil)
		if _, err := svcCl.Register(tk, "svc", root, 1); err != nil {
			t.Fatal(err)
		}
		svc.Bye()
		tk.Sleep(500 * 1000) // let the revocation propagate

		app := proc.Attach(cl, 0, "app", 0)
		appCl := connect(t, tk, reg, app)
		s, err := appCl.ResolveSet(tk, "svc")
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Members) != 0 {
			t.Fatalf("members after Bye = %+v, want none", s.Members)
		}
	})
}

// TestFencedReplicaPrunedFromSet is the regression test for the
// unbounded-names bug: a replica on a fenced node must disappear from
// ResolveSet (a crashed Controller's revocation trees die with it, so
// this is the NodeWatch-driven prune path, not the monitor path).
func TestFencedReplicaPrunedFromSet(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		reg := startRegistry(t, tk, cl)
		w := &NodeWatch{cl: cl} // no heartbeat: the test fences by hand
		reg.BindWatch(w)

		svc1 := proc.Attach(cl, 1, "svc1", 0)
		svc2 := proc.Attach(cl, 2, "svc2", 0)
		cl1 := connect(t, tk, reg, svc1)
		cl2 := connect(t, tk, reg, svc2)
		r1, _ := svc1.RequestCreate(tk, 7, nil, nil)
		r2, _ := svc2.RequestCreate(tk, 7, nil, nil)
		if _, err := cl1.Register(tk, "svc", r1, 1); err != nil {
			t.Fatal(err)
		}
		id2, err := cl2.Register(tk, "svc", r2, 2)
		if err != nil {
			t.Fatal(err)
		}

		// Fence node 1 the way the heartbeat detector would.
		w.emit(WatchEvent{At: tk.Now(), Kind: WatchFenced, Ctrl: cl.CtrlFor(1).ID()})
		cl.CtrlFor(1).Crash()
		tk.Sleep(500 * 1000)

		app := proc.Attach(cl, 0, "app", 0)
		appCl := connect(t, tk, reg, app)
		s, err := appCl.ResolveSet(tk, "svc")
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Members) != 1 || s.Members[0].ID != id2 {
			t.Fatalf("members after fence = %+v, want only member %d", s.Members, id2)
		}
	})
}

func TestNodeWatchFailsProcesses(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		victim := proc.Attach(cl, 1, "victim", 0)
		peer := proc.Attach(cl, 0, "peer", 0)
		req, _ := victim.RequestCreate(tk, 5, nil, nil)
		preq, _ := proc.GrantCap(victim, req, peer)

		cl.CtrlFor(1).FailProcess(victim.ID())
		tk.Sleep(200 * 1000) // 200µs settle
		if err := peer.Invoke(tk, preq, nil, nil); err == nil {
			t.Fatal("invoke on failed node's service succeeded")
		}
	})
}

func TestNodeWatchControllerCrashRecover(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		svc := proc.Attach(cl, 1, "svc", 0)
		peer := proc.Attach(cl, 0, "peer", 0)
		req, _ := svc.RequestCreate(tk, 5, nil, nil)
		preq, _ := proc.GrantCap(svc, req, peer)

		cl.CtrlFor(1).Crash()
		cl.CtrlFor(1).Reboot()
		tk.Sleep(200 * 1000)
		if err := peer.Invoke(tk, preq, nil, nil); err == nil {
			t.Fatal("stale capability usable after controller recovery")
		}
		if cl.CtrlFor(1).Epoch() != 2 {
			t.Errorf("epoch = %d, want 2", cl.CtrlFor(1).Epoch())
		}
	})
}
