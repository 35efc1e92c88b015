package proc_test

// Additional libfractos tests: asynchronous pipelining, receive
// mechanics, and misuse handling.

import (
	"errors"
	"slices"
	"testing"

	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/fabric"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/wire"
)

// TestInvokePipelining: invocations posted from tasks of their own
// overlap their round trips — total time for k calls is far below k
// serial round trips.
func TestInvokePipelining(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		srv := proc.Attach(cl, 1, "srv", 0)
		cli := proc.Attach(cl, 0, "cli", 0)
		req, _ := srv.RequestCreate(tk, 1, nil, nil)
		creq, _ := proc.GrantCap(srv, req, cli)

		// Serial.
		start := tk.Now()
		const k = 8
		for i := 0; i < k; i++ {
			if err := cli.Invoke(tk, creq, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		serial := tk.Now() - start

		// Pipelined.
		start = tk.Now()
		var posted sim.WaitGroup
		posted.Add(k)
		for i := 0; i < k; i++ {
			cl.K.Spawn("invoke", func(it *sim.Task) {
				defer posted.Done()
				if err := cli.Invoke(it, creq, nil, nil); err != nil {
					t.Errorf("pipelined invoke: %v", err)
				}
			})
		}
		posted.Wait(tk)
		pipelined := tk.Now() - start

		if pipelined*2 > serial {
			t.Errorf("pipelined %v vs serial %v: expected >2x overlap", pipelined, serial)
		}
		// Drain the deliveries.
		for i := 0; i < 2*k; i++ {
			d, err := receive(tk, srv).WaitTimeout(tk, us(50))
			if err != nil {
				t.Fatalf("only %d deliveries arrived", i)
			}
			d.Done()
		}
	})
}

func TestReceiveTimeoutExpires(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		p := proc.Attach(cl, 0, "p", 0)
		start := tk.Now()
		if _, err := receive(tk, p).WaitTimeout(tk, us(100)); err == nil {
			t.Fatal("unexpected delivery")
		}
		if got := tk.Now() - start; got != us(100) {
			t.Errorf("timeout after %v, want 100µs", got)
		}
	})
}

// TestDeliveryDoneIdempotent: acknowledging twice sends one credit.
func TestDeliveryDoneIdempotent(t *testing.T) {
	cfg := cpuCluster()
	cfg.Ctrl.Window = 1
	run(t, cfg, func(tk *sim.Task, cl *core.Cluster) {
		srv := proc.Attach(cl, 0, "srv", 0)
		cli := proc.Attach(cl, 0, "cli", 0)
		req, _ := srv.RequestCreate(tk, 1, nil, nil)
		creq, _ := proc.GrantCap(srv, req, cli)
		for i := 0; i < 3; i++ {
			if err := cli.Invoke(tk, creq, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		d1, _ := srv.Receive(tk)
		d1.Done()
		d1.Done() // double ack: must not grant an extra credit
		d2, err := receive(tk, srv).WaitTimeout(tk, us(100))
		if err != nil {
			t.Fatal("second delivery missing")
		}
		// The third delivery must wait for d2's (single) credit.
		third := receive(tk, srv)
		if _, err := third.WaitTimeout(tk, us(50)); err == nil {
			t.Fatal("third delivery arrived before its credit")
		}
		d2.Done()
		if _, err := third.WaitTimeout(tk, us(100)); err != nil {
			t.Fatal("third delivery never arrived")
		}
	})
}

// TestByeRevokesProvidedObjects: a graceful exit has the same
// capability consequences as a crash.
func TestByeRevokesProvidedObjects(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		svc := proc.Attach(cl, 0, "svc", 0)
		cli := proc.Attach(cl, 1, "cli", 0)
		req, _ := svc.RequestCreate(tk, 1, nil, nil)
		creq, _ := proc.GrantCap(svc, req, cli)
		svc.Bye()
		tk.Sleep(us(200))
		if err := cli.Invoke(tk, creq, nil, nil); err == nil {
			t.Fatal("invoke on exited service succeeded")
		}
	})
}

// TestSyscallAfterByeFailsAtOnce: the Controller drops whatever a
// Process sends behind its ProcBye, so a syscall posted after Bye would
// wait for a completion that never comes. libfractos knows it said
// goodbye and fails the call on the spot instead.
func TestSyscallAfterByeFailsAtOnce(t *testing.T) {
	returned := false
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		p := proc.Attach(cl, 0, "app", 0)
		if err := p.Null(tk); err != nil {
			t.Fatalf("null before Bye: %v", err)
		}
		p.Bye()
		at := tk.Now()
		err := p.Null(tk)
		returned = true
		if !errors.Is(err, proc.ErrDisconnected) || tk.Now() != at {
			t.Errorf("null after Bye: %v after %v, want ErrDisconnected at once", err, tk.Now()-at)
		}
		if _, err := p.CallWith(tk, proc.Cap{}, nil, nil, proc.Cap{}, wire.ReplyTag|p.NewTag()); !errors.Is(err, proc.ErrDisconnected) || tk.Now() != at {
			t.Errorf("call after Bye: %v after %v, want ErrDisconnected at once", err, tk.Now()-at)
		}
	})
	if !returned {
		t.Fatal("a syscall posted after Bye never returned: its task is parked for good")
	}
}

// TestFinishOnSeveredChannelFailsAtOnce: a delivery's acknowledgement
// that finds the channel to the Controller gone means the Controller
// tore the Process down, so libfractos takes the channel for gone: a
// syscall posted later fails on the spot, even once the endpoint is back.
func TestFinishOnSeveredChannelFailsAtOnce(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		srv, cli := proc.Attach(cl, 0, "srv", 0), proc.Attach(cl, 0, "cli", 0)
		req, _ := srv.RequestCreate(tk, 1, nil, nil)
		creq, _ := proc.GrantCap(srv, req, cli)
		srv.Handle(func(d *proc.Delivery) {
			cl.Net.Disconnect(srv.Endpoint())
			d.Finish()
			cl.Net.Reconnect(srv.Endpoint())
		})
		if err := cli.Invoke(tk, creq, nil, nil); err != nil {
			t.Fatal(err)
		}
		at := tk.Now()
		if err := srv.Null(tk); !errors.Is(err, proc.ErrDisconnected) || tk.Now() != at {
			t.Errorf("null after a failed acknowledgement: %v after %v, want ErrDisconnected at once", err, tk.Now()-at)
		}
	})
}

// TestDerivedRightsNeverGrow is the end-to-end monotonicity property:
// however a capability travels (diminish, revtree, delegation through
// invocations), the rights observed downstream are a subset of the
// original's.
func TestDerivedRightsNeverGrow(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		a := proc.Attach(cl, 0, "a", 4096)
		b := proc.Attach(cl, 1, "b", 0)
		orig, _ := a.MemoryCreate(tk, 0, 128, cap.Read|cap.Grant) // no Write from birth
		// Chain: diminish → revtree → delegate via invocation.
		dim, err := a.MemoryDiminish(tk, orig, 0, 64, 0)
		if err != nil {
			t.Fatal(err)
		}
		lease, err := a.Revtree(tk, dim)
		if err != nil {
			t.Fatal(err)
		}
		carrier, _ := b.RequestCreate(tk, 5, nil, nil)
		carrierA, _ := proc.GrantCap(b, carrier, a)
		if err := a.Invoke(tk, carrierA, nil, []proc.Arg{{Slot: 0, Cap: lease}}); err != nil {
			t.Fatal(err)
		}
		d, _ := b.Receive(tk)
		got, ok := d.Cap(0)
		d.Done()
		if !ok {
			t.Fatal("no delegated cap")
		}
		if got.Rights().Has(cap.Write) {
			t.Fatalf("delegated rights %v gained Write", got.Rights())
		}
		// And the authoritative check agrees: b cannot use it as a
		// copy destination.
		src2, err := a.MemoryCreate(tk, 64, 64, cap.MemRights)
		if err != nil {
			t.Fatal(err)
		}
		srcB, _ := proc.GrantCap(a, src2, b)
		if err := b.MemoryCopy(tk, srcB, got); !wire.IsStatus(err, wire.StatusPerm) {
			t.Errorf("write through never-writable chain: err = %v, want perm", err)
		}
	})
}

// TestCallWithBypassesQueue: a CallWith's reply goes to its call even
// with other traffic queued for Receive.
func TestCallWithBypassesQueue(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		p := proc.Attach(cl, 0, "p", 0)
		q := proc.Attach(cl, 0, "q", 0)
		noise, _ := p.RequestCreate(tk, 500, nil, nil)
		tagged, tag, _ := p.ReplyRequest(tk)
		noiseQ, _ := proc.GrantCap(p, noise, q)
		svc, _ := q.RequestCreate(tk, 1, nil, nil)
		svcP, _ := proc.GrantCap(q, svc, p)

		// q queues noise first, then answers through the tagged one.
		q.Serve("q", 1, func(st *sim.Task, d *proc.Delivery) {
			for i := 0; i < 3; i++ {
				if err := q.Invoke(st, noiseQ, nil, nil); err != nil {
					t.Error(err)
				}
			}
			if err := d.Reply(0, nil, nil); err != nil {
				t.Error(err)
			}
		})
		d, err := p.CallWith(tk, svcP, nil, []proc.Arg{{Slot: 0, Cap: tagged}}, tagged, tag)
		if err != nil {
			t.Fatal(err)
		}
		if d.Tag != tag {
			t.Fatalf("tag = %d, want %d", d.Tag, tag)
		}
		// The noise is still in the normal queue.
		for i := 0; i < 3; i++ {
			nd, err := receive(tk, p).WaitTimeout(tk, us(100))
			if err != nil || nd.Tag != 500 {
				t.Fatalf("noise delivery %d missing", i)
			}
			nd.Done()
		}
	})
}

func TestAllocErrors(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		p := proc.Attach(cl, 0, "p", 128)
		if _, err := p.Alloc(0); err == nil {
			t.Error("zero-size alloc succeeded")
		}
		if _, err := p.Alloc(-5); err == nil {
			t.Error("negative alloc succeeded")
		}
		if _, _, err := p.AllocMemory(tk, 256, cap.MemRights); err == nil {
			t.Error("oversized AllocMemory succeeded")
		}
		// Freeing an unknown offset is a no-op, not a crash.
		p.Free(77)
	})
}

// TestForeignCapRejected: a capability handle minted for one Process
// cannot be used through another — the library rejects it instead of
// silently addressing an unrelated cid.
func TestForeignCapRejected(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		a := proc.Attach(cl, 0, "a", 4096)
		b := proc.Attach(cl, 1, "b", 4096)
		am, _ := a.MemoryCreate(tk, 0, 64, cap.MemRights)
		bm, _ := b.MemoryCreate(tk, 0, 64, cap.MemRights)
		if err := b.MemoryCopy(tk, am, bm); err != proc.ErrForeignCap {
			t.Errorf("copy with foreign src: %v", err)
		}
		if err := b.Revoke(tk, am); err != proc.ErrForeignCap {
			t.Errorf("revoke foreign: %v", err)
		}
		if _, err := b.MemoryDiminish(tk, am, 0, 1, 0); err != proc.ErrForeignCap {
			t.Errorf("diminish foreign: %v", err)
		}
		if err := b.Invoke(tk, bmReq(tk, t, b), nil, []proc.Arg{{Slot: 0, Cap: am}}); err != proc.ErrForeignCap {
			t.Errorf("invoke with foreign arg: %v", err)
		}
	})
}

func bmReq(tk *sim.Task, t *testing.T, p *proc.Process) proc.Cap {
	t.Helper()
	r, err := p.RequestCreate(tk, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestAckFollowsStepSyscalls: a delivery's plain acknowledgement is
// posted when the acknowledging step ends, behind the syscalls the step
// posts after it: a server that acknowledges and then invokes sends the
// ReqInvoke first and the DeliverDone after it, at the same instant, on
// the same local link, so its Controller serves the invocation first.
func TestAckFollowsStepSyscalls(t *testing.T) {
	run(t, testbed.Spec{Nodes: 1}, func(tk *sim.Task, cl *core.Cluster) {
		srv, cli, sink := proc.Attach(cl, 0, "srv", 0), proc.Attach(cl, 0, "cli", 0), proc.Attach(cl, 0, "sink", 0)
		sink.Handle(func(d *proc.Delivery) { d.Finish() })
		req, _ := srv.RequestCreate(tk, 1, nil, nil)
		creq, _ := proc.GrantCap(srv, req, cli)
		sreq, _ := sink.RequestCreate(tk, 2, nil, nil)
		ssreq, _ := proc.GrantCap(sink, sreq, srv)
		var sent []fabric.TraceEvent
		cl.Net.SetTrace(func(e fabric.TraceEvent) {
			if e.From == srv.Endpoint() {
				sent = append(sent, e)
			}
		})
		served := sim.NewFuture[struct{}]()
		cl.K.Spawn("srv", func(st *sim.Task) {
			d, _ := srv.Receive(st)
			d.Done()
			if err := srv.Invoke(st, ssreq, nil, nil); err != nil {
				t.Error(err)
			}
			served.Set(struct{}{})
		})
		if err := cli.Invoke(tk, creq, nil, nil); err != nil {
			t.Fatal(err)
		}
		served.Wait(tk)
		cl.Net.SetTrace(nil)
		if len(sent) != 2 || sent[0].Type != wire.TReqInvoke || sent[1].Type != wire.TDeliverDone || sent[0].At != sent[1].At {
			t.Errorf("the server sent %v, want its ReqInvoke, then its DeliverDone at the same instant", sent)
		}
	})
}

// TestDeferredAckNeverStallsWindow: at a window of one, the delivery
// queued behind the one in service is released as soon as the server
// acknowledges that one and blocks: the DeliverDone leaves at the
// instant of Done, takes its local hop and the Null service of C0, and
// the queued Deliver its own hop back — as when the ack was posted on
// the spot.
func TestDeferredAckNeverStallsWindow(t *testing.T) {
	prof, perf := fabric.DefaultProfile(), core.DefaultPerf()
	hop := func(n int) sim.Time {
		return prof.HostExit + prof.HostEntry + prof.NICTurn + sim.Time(float64(n)/prof.LocalBW*1e9)
	}
	want := hop(3) + perf.Null.CPU + hop(14) // DeliverDone 3 B, Deliver 14 B
	run(t, testbed.Spec{Nodes: 1, Ctrl: core.Config{Window: 1}}, func(tk *sim.Task, cl *core.Cluster) {
		srv, cli := proc.Attach(cl, 0, "srv", 0), proc.Attach(cl, 0, "cli", 0)
		req, _ := srv.RequestCreate(tk, 1, nil, nil)
		creq, _ := proc.GrantCap(srv, req, cli)
		for i := range 2 {
			if err := cli.Invoke(tk, creq, []wire.ImmArg{proc.U64Arg(0, uint64(i))}, nil); err != nil {
				t.Fatal(err)
			}
		}
		var bytes []int
		cl.Net.SetTrace(func(e fabric.TraceEvent) { bytes = append(bytes, e.Bytes) })
		d, _ := srv.Receive(tk)
		at := tk.Now()
		d.Done()
		d, _ = srv.Receive(tk)
		if took := tk.Now() - at; took != want || d.U64(0) != 1 || !slices.Equal(bytes, []int{3, 14}) {
			t.Errorf("the queued delivery (%d) arrived %v after Done over frames of %v B, want delivery 1 after %v over 3 and 14 B", d.U64(0), took, bytes, want)
		}
		cl.Net.SetTrace(nil)
		d.Done()
	})
}
