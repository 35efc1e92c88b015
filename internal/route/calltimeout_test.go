package route

import (
	"errors"
	"testing"

	"fractos/internal/core"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// TestCallTimeoutOnCrashMidService pins the failure mode that motivated
// proc.CallTimeout: a replica's Controller crashes after admitting a
// request. The crashed Controller's revocation trees die with it, so no
// failure notification ever resolves the caller's continuation — an
// unbounded Call would hang forever (verified: this test deadlocked
// before CallTimeout existed). The bounded call must return
// proc.ErrCallTimeout at the deadline.
func TestCallTimeoutOnCrashMidService(t *testing.T) {
	cl := core.NewCluster(core.ClusterConfig{Nodes: 3})
	done := false
	cl.K.Spawn("main", func(tk *sim.Task) {
		svc := proc.Attach(cl, 1, "svc", 0)
		rep := &Replica{P: svc, Service: func(*proc.Delivery) sim.Time {
			return 10 * 1000 * 1000 // 10 ms service
		}}
		if err := rep.Start(tk); err != nil {
			t.Fatal(err)
		}
		client := proc.Attach(cl, 0, "client", 0)
		root, err := proc.GrantCap(svc, rep.Root, client)
		if err != nil {
			t.Fatal(err)
		}
		cl.K.After(5*1000*1000, func() { cl.CtrlFor(1).Crash() }) // mid-service
		start := tk.Now()
		_, err = client.CallTimeout(tk, root, nil, nil, WorkSlotCont, 20*1000*1000)
		if !errors.Is(err, proc.ErrCallTimeout) {
			t.Fatalf("call = %v, want ErrCallTimeout", err)
		}
		if !proc.Retryable(err) {
			t.Fatal("ErrCallTimeout must classify as transient")
		}
		if got := tk.Now() - start; got < 20*1000*1000 {
			t.Fatalf("timed out after %d ns, before the 20 ms bound", got)
		}
		done = true
	})
	cl.K.Run()
	cl.K.Shutdown()
	if !done {
		t.Fatal("DEADLOCK: call never returned")
	}
}

// TestCallTimeoutLateReplyAcked: the reply races the timeout — the
// provider answers *after* the deadline but the Controllers are all
// healthy. The late reply must be absorbed (acked, not leaked into the
// client's Receive queue), and a subsequent bounded call on the same
// client must still work.
func TestCallTimeoutLateReplyAcked(t *testing.T) {
	cl := core.NewCluster(core.ClusterConfig{Nodes: 3})
	done := false
	cl.K.Spawn("main", func(tk *sim.Task) {
		svc := proc.Attach(cl, 1, "svc", 0)
		rep := &Replica{P: svc, Service: func(d *proc.Delivery) sim.Time { return sim.Time(d.U64(8)) }}
		if err := rep.Start(tk); err != nil {
			t.Fatal(err)
		}
		client := proc.Attach(cl, 0, "client", 0)
		root, err := proc.GrantCap(svc, rep.Root, client)
		if err != nil {
			t.Fatal(err)
		}
		// 5 ms of service against a 1 ms bound: times out, reply lands later.
		_, err = client.CallTimeout(tk, root,
			[]wire.ImmArg{proc.U64Arg(0, 1), proc.U64Arg(8, 5*1000*1000)},
			nil, WorkSlotCont, 1*1000*1000)
		if !errors.Is(err, proc.ErrCallTimeout) {
			t.Fatalf("slow call = %v, want ErrCallTimeout", err)
		}
		tk.Sleep(10 * 1000 * 1000) // let the late reply arrive and be absorbed

		// Fast follow-up call succeeds on the same client Process.
		d, err := client.CallTimeout(tk, root,
			[]wire.ImmArg{proc.U64Arg(0, 2)}, nil, WorkSlotCont, 20*1000*1000)
		if err != nil {
			t.Fatalf("follow-up call: %v", err)
		}
		if st := d.Status(); st != wire.StatusOK {
			t.Fatalf("follow-up status = %v", st)
		}
		// Nothing stray in the Receive path.
		leaked := sim.NewFuture[*proc.Delivery]()
		cl.K.Spawn("receive", func(rt *sim.Task) {
			d, _ := client.Receive(rt)
			leaked.Set(d)
		})
		if _, err := leaked.WaitTimeout(tk, 1*1000*1000); err == nil {
			t.Fatal("late reply leaked into the Receive queue")
		}
		done = true
	})
	cl.K.Run()
	cl.K.Shutdown()
	if !done {
		t.Fatal("deadlock")
	}
}
