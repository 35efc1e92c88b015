package proc_test

// Integration tests: the full FractOS stack (sim kernel, fabric,
// Controllers, libfractos) exercised end to end.

import (
	"bytes"
	"fmt"
	"testing"

	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/fabric"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/wire"
)

func us(f float64) sim.Time { return testbed.USec(f) }

// run executes fn as the test's main task on a fresh testbed and runs
// the simulation to completion; testbed.RunT fails the test if a record
// is left lent, a pending call's among them. A test that leaves one on
// purpose runs through runLeaving and says why.
func run(t *testing.T, spec testbed.Spec, fn func(tk *sim.Task, cl *core.Cluster)) {
	t.Helper()
	testbed.RunT(t, spec, func(tk *sim.Task, d *testbed.Deployment) { fn(tk, d.Cl) })
}

// runLeaving is run for a test that ends with records lent on purpose:
// lent is what the audit must name (sim.Kernel.Unparked) and why gives
// the reason. Any other end of the run fails the test.
func runLeaving(t *testing.T, lent, why string, spec testbed.Spec, fn func(tk *sim.Task, cl *core.Cluster)) {
	t.Helper()
	l := &leaving{T: t}
	testbed.RunT(l, spec, func(tk *sim.Task, d *testbed.Deployment) { fn(tk, d.Cl) })
	if want := "testbed: the run ends with records lent: " + lent; l.report != want {
		t.Errorf("%q, want %q: %s", l.report, want, why)
	}
}

// leaving keeps the failure RunT reports, for runLeaving to compare.
type leaving struct {
	*testing.T
	report string
}

func (l *leaving) Fatalf(format string, args ...any) { l.report = fmt.Sprintf(format, args...) }

// receive starts a Receive on p in a task of its own; the future
// resolves with the delivery. A test waits for it with a virtual
// deadline (WaitTimeout); after a timeout the task stays parked on the
// queue and takes the next delivery.
func receive(tk *sim.Task, p *proc.Process) *sim.Future[*proc.Delivery] {
	f := sim.NewFuture[*proc.Delivery]()
	tk.Kernel().Spawn("receive", func(rt *sim.Task) {
		d, _ := p.Receive(rt)
		f.Set(d)
	})
	return f
}

func cpuCluster() testbed.Spec { return testbed.Spec{Nodes: 3, Placement: core.CtrlOnCPU} }
func snicCluster() testbed.Spec {
	return testbed.Spec{Nodes: 3, Placement: core.CtrlOnSNIC}
}

// --- Table 3: null operation ---

func TestNullOpLatencyCPU(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		p := proc.Attach(cl, 0, "app", 0)
		// Warm-up not needed: the model is deterministic.
		start := tk.Now()
		if err := p.Null(tk); err != nil {
			t.Fatalf("null: %v", err)
		}
		lat := tk.Now() - start
		if lat < us(2.8) || lat > us(3.2) {
			t.Errorf("null-op @CPU latency = %v, want ~3.0µs (Table 3)", lat)
		}
	})
}

func TestNullOpLatencySNIC(t *testing.T) {
	run(t, snicCluster(), func(tk *sim.Task, cl *core.Cluster) {
		p := proc.Attach(cl, 0, "app", 0)
		start := tk.Now()
		if err := p.Null(tk); err != nil {
			t.Fatalf("null: %v", err)
		}
		lat := tk.Now() - start
		if lat < us(4.2) || lat > us(4.8) {
			t.Errorf("null-op @sNIC latency = %v, want ~4.5µs (Table 3)", lat)
		}
	})
}

// --- Memory objects ---

func TestMemoryCreateBounds(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		p := proc.Attach(cl, 0, "app", 1024)
		if _, err := p.MemoryCreate(tk, 0, 1024, cap.MemRights); err != nil {
			t.Errorf("full-arena create failed: %v", err)
		}
		if _, err := p.MemoryCreate(tk, 512, 1024, cap.MemRights); err == nil {
			t.Error("out-of-arena create succeeded")
		}
		if _, err := p.MemoryCreate(tk, 0, 0, cap.MemRights); err == nil {
			t.Error("zero-size create succeeded")
		}
		if _, err := p.MemoryCreate(tk, ^uint64(0)-10, 512, cap.MemRights); !wire.IsStatus(err, wire.StatusBounds) {
			t.Errorf("create at a base whose sum with the size wraps: %v, want out-of-bounds", err)
		}
	})
}

func TestMemoryCopySameNode(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		a := proc.Attach(cl, 0, "a", 4096)
		b := proc.Attach(cl, 0, "b", 4096)
		copy(a.Arena(), "hello fractos")
		src, err := a.MemoryCreate(tk, 0, 13, cap.MemRights)
		if err != nil {
			t.Fatal(err)
		}
		dstB, err := b.MemoryCreate(tk, 100, 13, cap.MemRights)
		if err != nil {
			t.Fatal(err)
		}
		// Hand the dst capability to a via bootstrap grant.
		dstForA, err := proc.GrantCap(b, dstB, a)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.MemoryCopy(tk, src, dstForA); err != nil {
			t.Fatalf("copy: %v", err)
		}
		if string(b.Arena()[100:113]) != "hello fractos" {
			t.Fatalf("dst arena = %q", b.Arena()[100:113])
		}
	})
}

func TestMemoryCopyCrossNodeAndBack(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		a := proc.Attach(cl, 0, "a", 1<<20)
		b := proc.Attach(cl, 1, "b", 1<<20)
		payload := bytes.Repeat([]byte("0123456789abcdef"), 8192) // 128 KiB, > chunk
		copy(a.Arena(), payload)
		src, _ := a.MemoryCreate(tk, 0, uint64(len(payload)), cap.MemRights)
		dstB, _ := b.MemoryCreate(tk, 0, uint64(len(payload)), cap.MemRights)
		dst, err := proc.GrantCap(b, dstB, a)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.MemoryCopy(tk, src, dst); err != nil {
			t.Fatalf("copy: %v", err)
		}
		if !bytes.Equal(b.Arena()[:len(payload)], payload) {
			t.Fatal("128KiB cross-node copy corrupted data")
		}
	})
}

func TestMemoryCopyRightsEnforced(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		a := proc.Attach(cl, 0, "a", 4096)
		src, _ := a.MemoryCreate(tk, 0, 64, cap.MemRights)
		dst, _ := a.MemoryCreate(tk, 64, 64, cap.MemRights)
		// Read-only destination must be rejected.
		ro, err := a.MemoryDiminish(tk, dst, 0, 64, cap.Write)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.MemoryCopy(tk, src, ro); !wire.IsStatus(err, wire.StatusPerm) {
			t.Errorf("copy into read-only view: err = %v, want permission-denied", err)
		}
		// Write-only source must be rejected.
		wo, err := a.MemoryDiminish(tk, src, 0, 64, cap.Read)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.MemoryCopy(tk, wo, dst); !wire.IsStatus(err, wire.StatusPerm) {
			t.Errorf("copy from write-only view: err = %v, want permission-denied", err)
		}
	})
}

func TestMemoryDiminishView(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		a := proc.Attach(cl, 0, "a", 4096)
		b := proc.Attach(cl, 0, "b", 4096)
		copy(a.Arena(), "....MIDDLE....")
		whole, _ := a.MemoryCreate(tk, 0, 14, cap.MemRights)
		mid, err := a.MemoryDiminish(tk, whole, 4, 6, 0)
		if err != nil {
			t.Fatal(err)
		}
		if mid.Size() != 6 {
			t.Errorf("view size = %d", mid.Size())
		}
		dstB, _ := b.MemoryCreate(tk, 0, 6, cap.MemRights)
		dst, _ := proc.GrantCap(b, dstB, a)
		if err := a.MemoryCopy(tk, mid, dst); err != nil {
			t.Fatal(err)
		}
		if string(b.Arena()[:6]) != "MIDDLE" {
			t.Fatalf("view copy = %q", b.Arena()[:6])
		}
		// Diminish beyond the view is out of bounds, and so is one at an
		// offset whose sum with the size wraps.
		for _, off := range []uint64{4, ^uint64(0) - 2} {
			if _, err := a.MemoryDiminish(tk, mid, off, 6, 0); !wire.IsStatus(err, wire.StatusBounds) {
				t.Errorf("diminish of 6 bytes at %d of a 6-byte view: err = %v", off, err)
			}
		}
	})
}

// --- Requests ---

func TestRequestInvokeSameController(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		srv := proc.Attach(cl, 0, "srv", 0)
		cli := proc.Attach(cl, 0, "cli", 0)
		req, err := srv.RequestCreate(tk, 42, []wire.ImmArg{proc.U64Arg(0, 7)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		creq, err := proc.GrantCap(srv, req, cli)
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.Invoke(tk, creq, []wire.ImmArg{proc.U64Arg(8, 9)}, nil); err != nil {
			t.Fatal(err)
		}
		d, ok := srv.Receive(tk)
		if !ok {
			t.Fatal("no delivery")
		}
		defer d.Done()
		if d.Tag != 42 {
			t.Errorf("tag = %d", d.Tag)
		}
		if d.U64(0) != 7 || d.U64(8) != 9 {
			t.Errorf("imms = %v", d.Imms)
		}
	})
}

func TestRequestInvokeCrossController(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		srv := proc.Attach(cl, 1, "srv", 0)
		cli := proc.Attach(cl, 0, "cli", 0)
		req, _ := srv.RequestCreate(tk, 7, nil, nil)
		creq, _ := proc.GrantCap(srv, req, cli)
		if err := cli.Invoke(tk, creq, []wire.ImmArg{proc.BytesArg(0, []byte("xnode"))}, nil); err != nil {
			t.Fatal(err)
		}
		d, _ := srv.Receive(tk)
		defer d.Done()
		if string(d.Imms) != "xnode" {
			t.Errorf("imms = %q", d.Imms)
		}
	})
}

func TestRequestArgsImmutable(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		srv := proc.Attach(cl, 0, "srv", 0)
		req, _ := srv.RequestCreate(tk, 1, []wire.ImmArg{proc.U64Arg(0, 0xcafe)}, nil)
		// Deriving with overlapping immediates must fail.
		if _, err := srv.Derive(tk, req, []wire.ImmArg{proc.U64Arg(4, 1)}, nil); !wire.IsStatus(err, wire.StatusImmutable) {
			t.Errorf("overlapping derive: err = %v", err)
		}
		// Invoking with overlapping immediates must fail.
		if err := srv.Invoke(tk, req, []wire.ImmArg{proc.U64Arg(0, 1)}, nil); !wire.IsStatus(err, wire.StatusImmutable) {
			t.Errorf("overlapping invoke: err = %v", err)
		}
		// Non-overlapping refinement succeeds and inherits.
		d2, err := srv.Derive(tk, req, []wire.ImmArg{proc.U64Arg(8, 0xbeef)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Invoke(tk, d2, nil, nil); err != nil {
			t.Fatal(err)
		}
		d, _ := srv.Receive(tk)
		defer d.Done()
		if d.U64(0) != 0xcafe || d.U64(8) != 0xbeef {
			t.Errorf("derived args wrong: %v", d.Imms)
		}
	})
}

func TestSyncRPCEcho(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		srv := proc.Attach(cl, 1, "srv", 0)
		cli := proc.Attach(cl, 0, "cli", 0)
		const tagEcho, slotReply = 5, 0
		req, _ := srv.RequestCreate(tk, tagEcho, nil, nil)
		creq, _ := proc.GrantCap(srv, req, cli)

		cl.K.Spawn("srv-loop", func(st *sim.Task) {
			for {
				d, ok := srv.Receive(st)
				if !ok {
					return
				}
				reply, ok := d.Cap(slotReply)
				if !ok {
					t.Error("echo request without reply cap")
					return
				}
				// Echo the immediates back.
				if err := srv.Invoke(st, reply, []wire.ImmArg{proc.BytesArg(0, d.Imms)}, nil); err != nil {
					t.Errorf("reply invoke: %v", err)
				}
				d.Done()
			}
		})

		d, err := cli.Call(tk, creq, []wire.ImmArg{proc.BytesArg(0, []byte("ping"))}, nil, slotReply)
		if err != nil {
			t.Fatalf("call: %v", err)
		}
		if string(d.Imms) != "ping" {
			t.Errorf("echo = %q", d.Imms)
		}
	})
}

// TestContinuationChain exercises §3.4's decentralized pipeline: the
// client invokes stage1 with a continuation for stage2, whose
// continuation returns to the client. Each stage only invokes the
// Request it was handed, verbatim.
func TestContinuationChain(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		s1 := proc.Attach(cl, 1, "stage1", 0)
		s2 := proc.Attach(cl, 2, "stage2", 0)
		cli := proc.Attach(cl, 0, "cli", 0)
		const slotNext = 3

		stageLoop := func(p *proc.Process, mark byte) func(*sim.Task) {
			return func(st *sim.Task) {
				for {
					d, ok := p.Receive(st)
					if !ok {
						return
					}
					next, _ := d.Cap(slotNext)
					imms := append(append([]byte(nil), d.Imms...), mark)
					if err := p.Invoke(st, next, []wire.ImmArg{proc.BytesArg(0, imms)}, nil); err != nil {
						t.Errorf("stage invoke: %v", err)
					}
					d.Done()
				}
			}
		}
		r1, _ := s1.RequestCreate(tk, 1, nil, nil)
		r2, _ := s2.RequestCreate(tk, 2, nil, nil)
		cl.K.Spawn("s1", stageLoop(s1, '1'))
		cl.K.Spawn("s2", stageLoop(s2, '2'))

		// Client-side graph: invoke(r1, next=r2', r2' has next=done).
		cr1, _ := proc.GrantCap(s1, r1, cli)
		cr2, _ := proc.GrantCap(s2, r2, cli)
		doneReq, doneTag, _ := cli.ReplyRequest(tk)
		// r2 refined with its continuation (the client's reply).
		cr2d, err := cli.Derive(tk, cr2, nil, []proc.Arg{{Slot: slotNext, Cap: doneReq}})
		if err != nil {
			t.Fatal(err)
		}
		f := cli.WaitTag(doneTag)
		if err := cli.Invoke(tk, cr1, []wire.ImmArg{proc.BytesArg(0, []byte("x"))},
			[]proc.Arg{{Slot: slotNext, Cap: cr2d}}); err != nil {
			t.Fatal(err)
		}
		d, err := f.Wait(tk)
		if err != nil {
			t.Fatal(err)
		}
		d.Done()
		if string(d.Imms) != "x12" {
			t.Errorf("chain result = %q, want \"x12\"", d.Imms)
		}
	})
}

// --- Revocation ---

func TestRevokeMakesCapUnusable(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		a := proc.Attach(cl, 0, "a", 4096)
		b := proc.Attach(cl, 1, "b", 4096)
		mem, _ := a.MemoryCreate(tk, 0, 64, cap.MemRights)
		memB, _ := proc.GrantCap(a, mem, b)
		dst, _ := b.MemoryCreate(tk, 0, 64, cap.MemRights)
		if err := b.MemoryCopy(tk, memB, dst); err != nil {
			t.Fatalf("pre-revoke copy: %v", err)
		}
		if err := a.Revoke(tk, mem); err != nil {
			t.Fatalf("revoke: %v", err)
		}
		err := b.MemoryCopy(tk, memB, dst)
		if err == nil {
			t.Fatal("copy via revoked capability succeeded")
		}
	})
}

func TestRevtreeSelectiveRevocation(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		a := proc.Attach(cl, 0, "a", 4096)
		b := proc.Attach(cl, 1, "b", 4096)
		c := proc.Attach(cl, 2, "c", 4096)
		mem, _ := a.MemoryCreate(tk, 0, 64, cap.MemRights)
		// Two independently revocable children of the same object.
		leaseB, _ := a.Revtree(tk, mem)
		leaseC, _ := a.Revtree(tk, mem)
		capB, _ := proc.GrantCap(a, leaseB, b)
		capC, _ := proc.GrantCap(a, leaseC, c)
		dstB, _ := b.MemoryCreate(tk, 0, 64, cap.MemRights)
		dstC, _ := c.MemoryCreate(tk, 0, 64, cap.MemRights)

		// Revoke only B's lease.
		if err := a.Revoke(tk, leaseB); err != nil {
			t.Fatal(err)
		}
		if err := b.MemoryCopy(tk, capB, dstB); err == nil {
			t.Error("B's revoked lease still works")
		}
		if err := c.MemoryCopy(tk, capC, dstC); err != nil {
			t.Errorf("C's independent lease broken: %v", err)
		}
		// The parent object is untouched.
		dstA, _ := a.MemoryCreate(tk, 100, 64, cap.MemRights)
		if err := a.MemoryCopy(tk, mem, dstA); err != nil {
			t.Errorf("parent capability broken: %v", err)
		}
	})
}

func TestRevokeParentKillsDerivedLeases(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		a := proc.Attach(cl, 0, "a", 4096)
		b := proc.Attach(cl, 1, "b", 4096)
		mem, _ := a.MemoryCreate(tk, 0, 64, cap.MemRights)
		lease, _ := a.Revtree(tk, mem)
		capB, _ := proc.GrantCap(a, lease, b)
		dstB, _ := b.MemoryCreate(tk, 0, 64, cap.MemRights)
		if err := a.Revoke(tk, mem); err != nil {
			t.Fatal(err)
		}
		if err := b.MemoryCopy(tk, capB, dstB); err == nil {
			t.Error("lease survived parent revocation")
		}
	})
}

// --- Delegation through invocation ---

func TestInvokeDelegatesMemory(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		srv := proc.Attach(cl, 1, "srv", 4096)
		cli := proc.Attach(cl, 0, "cli", 4096)
		copy(srv.Arena(), "service-data")
		req, _ := srv.RequestCreate(tk, 9, nil, nil)
		creq, _ := proc.GrantCap(srv, req, cli)

		cl.K.Spawn("srv", func(st *sim.Task) {
			d, ok := srv.Receive(st)
			if !ok {
				return
			}
			out, ok := d.Cap(0)
			if !ok {
				t.Error("no output cap delegated")
				return
			}
			srcMem, err := srv.MemoryCreate(st, 0, 12, cap.MemRights)
			if err != nil {
				t.Errorf("srv mem create: %v", err)
				return
			}
			if err := srv.MemoryCopy(st, srcMem, out); err != nil {
				t.Errorf("srv copy into delegated cap: %v", err)
			}
			reply, _ := d.Cap(1)
			srv.Invoke(st, reply, nil, nil)
			d.Done()
		})

		outMem, _ := cli.MemoryCreate(tk, 0, 12, cap.MemRights)
		d, err := cli.Call(tk, creq, nil, []proc.Arg{{Slot: 0, Cap: outMem}}, 1)
		if err != nil {
			t.Fatal(err)
		}
		_ = d
		if string(cli.Arena()[:12]) != "service-data" {
			t.Errorf("delegated write = %q", cli.Arena()[:12])
		}
	})
}

// --- Congestion control ---

func TestCongestionWindowBackpressure(t *testing.T) {
	cfg := cpuCluster()
	cfg.Ctrl.Window = 2
	run(t, cfg, func(tk *sim.Task, cl *core.Cluster) {
		srv := proc.Attach(cl, 0, "srv", 0)
		cli := proc.Attach(cl, 0, "cli", 0)
		req, _ := srv.RequestCreate(tk, 3, nil, nil)
		creq, _ := proc.GrantCap(srv, req, cli)
		// Fire 6 invocations without the server draining.
		for i := 0; i < 6; i++ {
			if err := cli.Invoke(tk, creq, []wire.ImmArg{proc.U64Arg(0, uint64(i))}, nil); err != nil {
				t.Fatal(err)
			}
		}
		// Let everything settle: only 2 may be delivered.
		tk.Sleep(us(100))
		delivered := 0
		for {
			d, err := receive(tk, srv).WaitTimeout(tk, us(10))
			if err != nil {
				break
			}
			delivered++
			if delivered <= 2 {
				// Do not ack yet for the first two — check queueing.
			}
			d.Done()
		}
		if delivered != 6 {
			t.Errorf("delivered = %d, want all 6 after acks", delivered)
		}
	})
}

// --- Monitors and failures ---

func TestMonitorReceiveFiresOnRevoke(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		a := proc.Attach(cl, 0, "a", 4096)
		b := proc.Attach(cl, 1, "b", 0)
		mem, _ := a.MemoryCreate(tk, 0, 64, cap.MemRights)
		memB, _ := proc.GrantCap(a, mem, b)
		fired := false
		if err := b.MonitorReceive(tk, memB, func() { fired = true }); err != nil {
			t.Fatal(err)
		}
		if err := a.Revoke(tk, mem); err != nil {
			t.Fatal(err)
		}
		tk.Sleep(us(100))
		if !fired {
			t.Error("monitor_receive callback did not fire")
		}
	})
}

// TestFaultDuplicatedNotifyRunsCallbackOnce: on a fabric that delivers
// every cross-node frame twice, the owner's CtrlNotify reaches the
// watcher's Controller twice and becomes two MonitorCBs; the watched
// object was revoked once, so its monitor_receive callback runs once.
func TestFaultDuplicatedNotifyRunsCallbackOnce(t *testing.T) {
	spec := testbed.Spec{Nodes: 2, Chaos: fabric.Faults{Dup: 1, Seed: 1}}
	run(t, spec, func(tk *sim.Task, cl *core.Cluster) {
		owner := proc.Attach(cl, 0, "owner", 4096)
		holder := proc.Attach(cl, 1, "holder", 0)
		mem, err := owner.MemoryCreate(tk, 0, 64, cap.MemRights)
		if err != nil {
			t.Error(err)
			return
		}
		held, err := proc.GrantCap(owner, mem, holder)
		if err != nil {
			t.Error(err)
			return
		}
		runs := 0
		if err := holder.MonitorReceive(tk, held, func() { runs++ }); err != nil {
			t.Error(err)
			return
		}
		if err := owner.Revoke(tk, mem); err != nil {
			t.Error(err)
			return
		}
		tk.Sleep(us(100))
		if runs != 1 {
			t.Errorf("monitor_receive callback ran %d times, want 1", runs)
		}
	})
}

func TestMonitorDelegateFiresWhenChildrenGone(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		srv := proc.Attach(cl, 0, "srv", 0)
		cli := proc.Attach(cl, 1, "cli", 0)
		sink := proc.Attach(cl, 1, "sink", 0)
		// Service creates a per-client request and monitors it.
		req, _ := srv.RequestCreate(tk, 11, nil, nil)
		fired := false
		if err := srv.MonitorDelegate(tk, req, func() { fired = true }); err != nil {
			t.Fatal(err)
		}
		// Delegate to the client via an invocation argument (the
		// monitored delegation path), through a carrier request.
		carrier, _ := cli.RequestCreate(tk, 12, nil, nil)
		carrierSrv, _ := proc.GrantCap(cli, carrier, srv)
		if err := srv.Invoke(tk, carrierSrv, nil, []proc.Arg{{Slot: 0, Cap: req}}); err != nil {
			t.Fatal(err)
		}
		d, _ := cli.Receive(tk)
		leased, ok := d.Cap(0)
		if !ok {
			t.Fatal("no delegated cap")
		}
		d.Done()
		// The leased child works.
		_ = sink
		if fired {
			t.Fatal("callback fired before child revocation")
		}
		// Client revokes its lease: the service finds out.
		if err := cli.Revoke(tk, leased); err != nil {
			t.Fatal(err)
		}
		tk.Sleep(us(100))
		if !fired {
			t.Error("monitor_delegate callback did not fire after child revocation")
		}
	})
}

func TestProcessFailureRevokesAndNotifies(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		srv := proc.Attach(cl, 0, "gpu-svc", 0)
		cli := proc.Attach(cl, 1, "client", 0)
		// Service hands the client a monitored per-client request.
		req, _ := srv.RequestCreate(tk, 21, nil, nil)
		var clientGone bool
		if err := srv.MonitorDelegate(tk, req, func() { clientGone = true }); err != nil {
			t.Fatal(err)
		}
		carrier, _ := cli.RequestCreate(tk, 22, nil, nil)
		carrierSrv, _ := proc.GrantCap(cli, carrier, srv)
		if err := srv.Invoke(tk, carrierSrv, nil, []proc.Arg{{Slot: 0, Cap: req}}); err != nil {
			t.Fatal(err)
		}
		d, _ := cli.Receive(tk)
		leased, _ := d.Cap(0)
		d.Done()

		// Client also watches the service request for failures.
		var svcGone bool
		if err := cli.MonitorReceive(tk, leased, func() { svcGone = true }); err != nil {
			t.Fatal(err)
		}

		// Kill the client. Its Controller revokes the leased child →
		// the service's monitor_delegate fires.
		cl.CtrlFor(1).FailProcess(cli.ID())
		tk.Sleep(us(200))
		if !clientGone {
			t.Error("service did not observe client failure")
		}
		_ = svcGone // the client is dead; its watcher is moot
	})
}

func TestServiceFailureNotifiesClient(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		srv := proc.Attach(cl, 0, "svc", 0)
		cli := proc.Attach(cl, 1, "client", 0)
		req, _ := srv.RequestCreate(tk, 31, nil, nil)
		creq, _ := proc.GrantCap(srv, req, cli)
		var svcGone bool
		if err := cli.MonitorReceive(tk, creq, func() { svcGone = true }); err != nil {
			t.Fatal(err)
		}
		cl.CtrlFor(0).FailProcess(srv.ID())
		tk.Sleep(us(200))
		if !svcGone {
			t.Error("client did not observe service failure via monitor_receive")
		}
		if err := cli.Invoke(tk, creq, nil, nil); err == nil {
			t.Error("invoke on failed service's request succeeded")
		}
	})
}

func TestControllerRebootStalenessDetection(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		srv := proc.Attach(cl, 1, "svc", 0)
		cli := proc.Attach(cl, 0, "client", 0)
		req, _ := srv.RequestCreate(tk, 41, nil, nil)
		creq, _ := proc.GrantCap(srv, req, cli)
		if err := cli.Invoke(tk, creq, nil, nil); err != nil {
			t.Fatalf("pre-crash invoke: %v", err)
		}
		// Crash and reboot controller 1: its epoch advances.
		ctrl := cl.CtrlFor(1)
		ctrl.Crash()
		ctrl.Reboot()
		tk.Sleep(us(100))
		// The old capability is implicitly revoked (stale epoch): the
		// client's controller either purged it or rejects it on use.
		if err := cli.Invoke(tk, creq, nil, nil); err == nil {
			t.Error("stale-epoch capability still usable after controller reboot")
		}
	})
}

// --- HW copies ablation ---

func TestHWCopiesProducesSameData(t *testing.T) {
	cfg := cpuCluster()
	cfg.Ctrl.HWCopies = true
	run(t, cfg, func(tk *sim.Task, cl *core.Cluster) {
		a := proc.Attach(cl, 0, "a", 1<<17)
		b := proc.Attach(cl, 1, "b", 1<<17)
		payload := bytes.Repeat([]byte{0xab}, 1<<16)
		copy(a.Arena(), payload)
		src, _ := a.MemoryCreate(tk, 0, uint64(len(payload)), cap.MemRights)
		dstB, _ := b.MemoryCreate(tk, 0, uint64(len(payload)), cap.MemRights)
		dst, _ := proc.GrantCap(b, dstB, a)
		if err := a.MemoryCopy(tk, src, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Arena()[:len(payload)], payload) {
			t.Fatal("hw-copy corrupted data")
		}
	})
}

// --- Arena allocator ---

func TestAllocFreeReuse(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		p := proc.Attach(cl, 0, "p", 1024)
		a, err := p.Alloc(512)
		if err != nil {
			t.Fatal(err)
		}
		bOff, err := p.Alloc(512)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Alloc(1); err == nil {
			t.Error("over-allocation succeeded")
		}
		p.Free(a)
		p.Free(bOff)
		if _, err := p.Alloc(1024); err != nil {
			t.Errorf("coalesced realloc failed: %v", err)
		}
	})
}
