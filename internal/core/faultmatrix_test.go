package core_test

// Chaos matrix: the Controller RPC layer (retransmission + at-most-once
// dedup + stale-epoch rejection, docs/FAULTS.md) exercised over the
// fabric fault injector across a grid of loss rates, a partition that
// heals inside the call budget, and a Controller crash in
// the middle of a partition. Every scenario asserts liveness (bounded
// calls — the workload can never hang) and the whole matrix asserts
// determinism (double runs produce byte-identical traces).

import (
	"fmt"
	"testing"

	"fractos/internal/core"
	"fractos/internal/fabric"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/wire"
)

const fms = sim.Time(1000 * 1000) // 1 ms virtual

// echoRig is a client (node 0) + echo-service (svcNode) pair whose
// request path crosses the lossy Controller↔Controller hop twice per
// call (CtrlInvoke out, reply-Request CtrlInvoke back).
type echoRig struct {
	cl     *core.Cluster
	client *proc.Process
	svcP   *proc.Process
	svcReq proc.Cap
	creq   proc.Cap
}

func newEchoRig(tk *sim.Task, cl *core.Cluster, svcNode int, gen int) *echoRig {
	r := &echoRig{cl: cl}
	r.svcP = proc.Attach(cl, svcNode, fmt.Sprintf("echo-g%d", gen), 4096)
	var err error
	if r.svcReq, err = r.svcP.RequestCreate(tk, 1, nil, nil); err != nil {
		panic(err)
	}
	cl.K.Spawn("echo-loop", func(st *sim.Task) {
		for {
			d, ok := r.svcP.Receive(st)
			if !ok {
				return
			}
			if rep, okc := d.Cap(0); okc {
				//fractos:mustuse-ok echo reply failure surfaces as the client's timeout
				r.svcP.Invoke(st, rep, []wire.ImmArg{proc.BytesArg(0, d.Imms)}, nil)
			}
			d.Done()
		}
	})
	r.client = proc.Attach(cl, 0, fmt.Sprintf("cli-g%d", gen), 8192)
	if r.creq, err = proc.GrantCap(r.svcP, r.svcReq, r.client); err != nil {
		panic(err)
	}
	return r
}

// call is a bounded echo round trip: it can fail (an aborted RPC, a
// timed-out reply) but can never hang past the deadline.
func (r *echoRig) call(tk *sim.Task, payload string, deadline sim.Time) error {
	reply, tag, err := r.client.ReplyRequest(tk)
	if err != nil {
		return err
	}
	f := r.client.WaitTag(tag)
	err = r.client.Invoke(tk, r.creq,
		[]wire.ImmArg{proc.BytesArg(0, []byte(payload))},
		[]proc.Arg{{Slot: 0, Cap: reply}})
	if err != nil {
		r.client.Drop(tk, reply)
		return err
	}
	d, err := f.WaitTimeout(tk, deadline)
	r.client.Drop(tk, reply)
	if err != nil {
		return err
	}
	d.Done()
	if string(d.Imms) != payload {
		return fmt.Errorf("echo corrupted: %q != %q", d.Imms, payload)
	}
	return nil
}

// TestCrashAbortsPendingPeerCalls pins the Crash/abortAllPending edge:
// an inter-Controller call parked across a partition, well inside its
// deadline, must be resolved with StatusAborted when the *issuing*
// Controller crashes, instead of leaking its callback across the
// reboot.
func TestCrashAbortsPendingPeerCalls(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		cl.Net.InstallFaults(fabric.Faults{})
		r := newEchoRig(tk, cl, 1, 0)
		if err := r.call(tk, "warm", 20*fms); err != nil {
			t.Fatalf("healthy path: %v", err)
		}
		// Cut node 1: every copy of the forwarded CtrlInvoke is lost, and
		// the call keeps resending until the crash aborts it.
		cl.Net.PartitionNodes([]int{1})
		finished := false
		cl.K.Spawn("stuck-invoke", func(st *sim.Task) {
			_ = r.client.Invoke(st, r.creq, nil, nil)
			finished = true
		})
		tk.Sleep(50 * fms)
		if finished {
			t.Fatal("invoke resolved across a partition")
		}
		if got := cl.CtrlFor(0).Metrics().RPCAborted; got != 0 {
			t.Fatalf("RPCAborted=%d before the crash, want 0", got)
		}
		cl.CtrlFor(0).Crash()
		if got := cl.CtrlFor(0).Metrics().RPCAborted; got != 1 {
			t.Errorf("RPCAborted=%d after Crash, want 1 (pending call leaked)", got)
		}
		// Reboot must start from a clean pending table: epoch bumped,
		// no stale callbacks left to fire.
		cl.Net.HealPartitions()
		cl.CtrlFor(0).Reboot()
		tk.Sleep(5 * fms)
		if got := cl.CtrlFor(0).Metrics().RPCAborted; got != 1 {
			t.Errorf("RPCAborted moved to %d across Reboot, want still 1", got)
		}
		if cl.CtrlFor(0).Epoch() != 2 {
			t.Errorf("epoch after reboot = %d, want 2", cl.CtrlFor(0).Epoch())
		}
	})
}

// TestPeerCrashAbortsPendingCalls pins the other synthetic abort: a
// call parked towards a peer that is then observed under a new epoch
// resolves StatusAborted (abortPendingTo) and is counted in RPCAborted
// like the aborts of a passed deadline and of an own crash — the three
// sources the counter documents.
func TestPeerCrashAbortsPendingCalls(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		cl.Net.InstallFaults(fabric.Faults{})
		r := newEchoRig(tk, cl, 1, 0)
		if err := r.call(tk, "warm", 20*fms); err != nil {
			t.Fatalf("healthy path: %v", err)
		}
		// Every copy of the forwarded CtrlInvoke is lost to the
		// partition: the call stays parked at Controller 0, resending
		// until the peer's new epoch aborts it.
		cl.Net.PartitionNodes([]int{1})
		var invokeErr error
		finished := false
		cl.K.Spawn("stuck-invoke", func(st *sim.Task) {
			invokeErr = r.client.Invoke(st, r.creq, nil, nil)
			finished = true
		})
		tk.Sleep(50 * fms)
		if finished || cl.CtrlFor(0).PendingCalls() != 1 {
			t.Fatalf("want one call parked across the partition: finished=%v pending=%d",
				finished, cl.CtrlFor(0).PendingCalls())
		}
		cl.Net.HealPartitions()
		cl.CtrlFor(1).Crash()
		cl.CtrlFor(1).Reboot() // announces epoch 2 to Controller 0
		tk.Sleep(5 * fms)
		if !finished || invokeErr == nil {
			t.Fatalf("invoke across the peer's reboot: finished=%v err=%v, want an abort", finished, invokeErr)
		}
		if got := cl.CtrlFor(0).Metrics().RPCAborted; got != 1 {
			t.Errorf("RPCAborted=%d after the peer's epoch bump, want 1", got)
		}
		if got := cl.CtrlFor(0).PendingCalls(); got != 0 {
			t.Errorf("%d calls still pending after the abort", got)
		}
	})
}

// TestLossyFabricAlwaysRetransmits: a Controller retransmits whenever
// its fabric can lose a frame, even one built with an empty fault layer
// and cut by hand. An invocation sent into a partition that heals 5 ms
// later returns nil after the heal, and no call stays pending.
func TestLossyFabricAlwaysRetransmits(t *testing.T) {
	const cutAt, heal = 100 * fms, 5 * fms
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		cl.Net.InstallFaults(fabric.Faults{})
		cl.K.After(cutAt-tk.Now(), func() {
			cl.Net.PartitionNodes([]int{1})
			cl.K.After(heal, cl.Net.HealPartitions)
		})
		r := newEchoRig(tk, cl, 1, 0)
		tk.Sleep(cutAt + us(1) - tk.Now())
		if err := r.client.Invoke(tk, r.creq, nil, nil); err != nil || tk.Now() < cutAt+heal {
			t.Errorf("invoke across the partition returned %v at %v, want nil after the heal at %v", err, tk.Now(), cutAt+heal)
		}
		for _, c := range cl.Ctrls {
			if n := c.PendingCalls(); n != 0 {
				t.Errorf("%d calls pending at Controller %d", n, c.ID())
			}
		}
	})
}

// TestChaosMatrixLoss: every call completes successfully under 0 %,
// 1 % and 5 % frame loss — the retransmission protocol masks the
// drops, the dedup cache absorbs the duplicated requests.
func TestChaosMatrixLoss(t *testing.T) {
	for _, tc := range []struct {
		name string
		drop float64
	}{
		{"drop-0", 0},
		{"drop-1pct", 0.01},
		{"drop-5pct", 0.05},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := testbed.Spec{
				Nodes: 2,
				Chaos: fabric.Faults{Drop: tc.drop, Dup: tc.drop / 2, Seed: 77},
			}
			run(t, cfg, func(tk *sim.Task, cl *core.Cluster) {
				r := newEchoRig(tk, cl, 1, 0)
				for i := 0; i < 40; i++ {
					if err := r.call(tk, fmt.Sprintf("m-%d", i), 500*fms); err != nil {
						t.Fatalf("call %d under %.0f%% loss: %v", i, tc.drop*100, err)
					}
					tk.Sleep(fms / 2)
				}
				m0, m1 := cl.CtrlFor(0).Metrics(), cl.CtrlFor(1).Metrics()
				fs := cl.Net.FaultStats()
				if tc.drop == 0 {
					if fs.Dropped != 0 || m0.Retransmits+m1.Retransmits != 0 {
						t.Errorf("fault-free run perturbed: %+v retx=%d/%d",
							fs, m0.Retransmits, m1.Retransmits)
					}
					return
				}
				if fs.Dropped == 0 {
					t.Error("no frames dropped — injector inert?")
				}
				if m0.Retransmits+m1.Retransmits == 0 {
					t.Error("frames were lost but nothing was retransmitted")
				}
			})
		})
	}
}

// TestChaosPartitionHeal: a partition shorter than the call budget
// is fully masked — every call issued across the outage still
// completes once the fabric heals, via retransmission and dedup.
func TestChaosPartitionHeal(t *testing.T) {
	cfg := testbed.Spec{Nodes: 2, Chaos: fabric.Faults{Drop: 0.01, Seed: 78}}
	run(t, cfg, func(tk *sim.Task, cl *core.Cluster) {
		cl.K.After(20*fms-tk.Now(), func() { cl.Net.PartitionNodes([]int{1}) })
		cl.K.After(45*fms-tk.Now(), cl.Net.HealPartitions)
		r := newEchoRig(tk, cl, 1, 0)
		for i := 0; i < 50; i++ {
			if err := r.call(tk, fmt.Sprintf("p-%d", i), 1000*fms); err != nil {
				t.Fatalf("call %d across the partition window: %v", i, err)
			}
			tk.Sleep(fms)
		}
		fs := cl.Net.FaultStats()
		if fs.Cut == 0 {
			t.Error("no frames were cut — the partition never happened")
		}
		m0 := cl.CtrlFor(0).Metrics()
		if m0.Retransmits == 0 {
			t.Error("partition masked without retransmissions?")
		}
		if m0.RPCAborted != 0 {
			t.Errorf("RPCAborted=%d — a partition shorter than the budget should be fully masked", m0.RPCAborted)
		}
	})
}

// TestChaosCrashMidPartition: the service-side Controller crashes while
// partitioned away. Calls during the outage fail in bounded time
// (the call budget runs out → StatusAborted), the reboot announces a fresh
// epoch after the heal, stale capabilities are rejected, and a
// redeployed service restores end-to-end health.
func TestChaosCrashMidPartition(t *testing.T) {
	cfg := testbed.Spec{
		Nodes: 2,
		Chaos: fabric.Faults{Drop: 0.01, Seed: 79},
	}
	run(t, cfg, func(tk *sim.Task, cl *core.Cluster) {
		r := newEchoRig(tk, cl, 1, 0)
		if err := r.call(tk, "pre", 500*fms); err != nil {
			t.Fatalf("healthy path: %v", err)
		}

		cl.Net.PartitionNodes([]int{1})
		cl.CtrlFor(1).Crash()

		// Bounded failure during the outage: the call's budget
		// (core.RPCBudget, 315 ms) runs out and the client sees
		// an error — never a hang.
		if err := r.call(tk, "mid", 1000*fms); err == nil {
			t.Fatal("call succeeded against a crashed, partitioned Controller")
		}

		cl.Net.HealPartitions()
		cl.CtrlFor(1).Reboot()
		tk.Sleep(10 * fms) // let the epoch announcement propagate

		if got := cl.CtrlFor(1).Epoch(); got != 2 {
			t.Fatalf("epoch after mid-partition reboot = %d, want 2", got)
		}
		// The old capability died with the epoch.
		if err := r.call(tk, "stale", 500*fms); err == nil {
			t.Fatal("stale pre-crash capability still usable after the epoch bump")
		}
		// Redeploy: fresh service, fresh grant, full health.
		r2 := newEchoRig(tk, cl, 1, 1)
		if err := r2.call(tk, "post", 500*fms); err != nil {
			t.Fatalf("redeployed service unusable: %v", err)
		}
	})
}

// TestChaosMatrixDeterministic: every faulty scenario in the matrix is
// reproducible — two runs with the same seeds yield byte-identical
// call traces, Controller metrics, and fault counters.
func TestChaosMatrixDeterministic(t *testing.T) {
	scenarios := []struct {
		faults            fabric.Faults
		partition, healAt sim.Time // no partition if healAt is 0
	}{
		{faults: fabric.Faults{Drop: 0.05, Dup: 0.02, Seed: 90}},
		{faults: fabric.Faults{Drop: 0.02, Jitter: fms / 4, Seed: 91}, partition: 10 * fms, healAt: 25 * fms},
	}
	trace := func(i int) string {
		sc := scenarios[i]
		var out string
		run(t, testbed.Spec{Nodes: 2, Chaos: sc.faults}, func(tk *sim.Task, cl *core.Cluster) {
			if sc.healAt > 0 {
				cl.K.After(sc.partition-tk.Now(), func() { cl.Net.PartitionNodes([]int{1}) })
				cl.K.After(sc.healAt-tk.Now(), cl.Net.HealPartitions)
			}
			r := newEchoRig(tk, cl, 1, 0)
			for i := 0; i < 30; i++ {
				err := r.call(tk, fmt.Sprintf("d-%d", i), 1000*fms)
				out += fmt.Sprintf("%d:%v@%d;", i, err == nil, tk.Now())
				tk.Sleep(fms / 2)
			}
			out += fmt.Sprintf("|m0=%v|m1=%v|f=%+v",
				cl.CtrlFor(0).Metrics(), cl.CtrlFor(1).Metrics(), cl.Net.FaultStats())
		})
		return out
	}
	for i := range scenarios {
		a, b := trace(i), trace(i)
		if a != b {
			t.Fatalf("scenario %d traces differ:\n%s\n%s", i, a, b)
		}
	}
}
