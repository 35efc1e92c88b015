package proc_test

// Cancellation pattern (§3.6): FractOS does not cancel in-flight
// Requests itself — "in-flight Request cancellation ... must be
// handled by Processes themselves", built from the monitoring
// primitives. The pattern demonstrated here:
//
//   - the client passes a *revocable* reply continuation (a revtree
//     child of its reply Request);
//   - the worker, before starting expensive work, registers
//     monitor_receive on the delivered continuation;
//   - to cancel, the client revokes the child: the worker's callback
//     fires and it abandons the work; a worker that already finished
//     simply fails to invoke the dead continuation.

import (
	"testing"

	"fractos/internal/core"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

func TestCancellationViaRevocation(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		worker := proc.Attach(cl, 1, "worker", 0)
		client := proc.Attach(cl, 0, "client", 0)
		work, _ := worker.RequestCreate(tk, 1, nil, nil)
		cwork, _ := proc.GrantCap(worker, work, client)

		computeStarted := 0
		computeFinished := 0
		cl.K.Spawn("worker-loop", func(st *sim.Task) {
			for {
				d, ok := worker.Receive(st)
				if !ok {
					return
				}
				cont, _ := d.Cap(0)
				cancelled := false
				if err := worker.MonitorReceive(st, cont, func() { cancelled = true }); err != nil {
					// Continuation already dead: skip entirely.
					d.Done()
					continue
				}
				computeStarted++
				// Expensive work, cooperatively checking the flag.
				for step := 0; step < 10 && !cancelled; step++ {
					st.Sleep(us(100))
				}
				if !cancelled {
					computeFinished++
					worker.Invoke(st, cont, nil, nil)
				}
				d.Done()
			}
		})

		// Request 1: run to completion.
		reply1, tag1, _ := client.ReplyRequest(tk)
		lease1, err := client.Revtree(tk, reply1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.CallWith(tk, cwork, nil, []proc.Arg{{Slot: 0, Cap: lease1}}, reply1, tag1); err != nil {
			t.Fatal(err)
		}

		// Request 2: cancel mid-work by revoking the lease. No call waits
		// for its reply, so its continuation is a plain Request, which
		// delivers to the handler a reply that came (a reply Request no
		// CallWith armed would refuse it).
		tag2 := client.NewTag()
		reply2, _ := client.RequestCreate(tk, tag2, nil, nil)
		lease2, _ := client.Revtree(tk, reply2)
		replied := false
		client.Handle(func(d *proc.Delivery) {
			replied = replied || d.Tag == tag2
			d.Finish()
		})
		if err := client.Invoke(tk, cwork, nil, []proc.Arg{{Slot: 0, Cap: lease2}}); err != nil {
			t.Fatal(err)
		}
		tk.Sleep(us(250)) // the worker is ~2 steps in
		if err := client.Revoke(tk, lease2); err != nil {
			t.Fatal(err)
		}
		tk.Sleep(us(3000))
		if replied {
			t.Fatal("cancelled request still replied")
		}

		tk.Sleep(us(2000))
		if computeStarted != 2 {
			t.Errorf("computeStarted = %d, want 2", computeStarted)
		}
		if computeFinished != 1 {
			t.Errorf("computeFinished = %d, want 1 (the cancelled one must abort)", computeFinished)
		}
		// The first reply Request (parent) is unaffected by revoking
		// its child lease: reuse it.
		lease3, err := client.Revtree(tk, reply1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.CallWith(tk, cwork, nil, []proc.Arg{{Slot: 0, Cap: lease3}}, reply1, tag1); err != nil {
			t.Fatal(err)
		}
		_ = wire.StatusOK
	})
}
