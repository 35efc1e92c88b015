package core_test

// Seed sweep over the retransmission path: the properties the
// Controller RPC layer promises under loss, duplication and jitter
// (docs/FAULTS.md § 2), checked at quiescence over a grid of seeds and
// fault settings instead of on hand-picked schedules.

import (
	"fmt"
	"testing"

	"fractos/internal/core"
	"fractos/internal/fabric"
	"fractos/internal/load"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// sweepRun drives 4 closed-loop callers on node 0 against a null Request
// served on node 1 — every Call crosses the lossy Controller hop as two
// CtrlInvoke/CtrlAck exchanges, the invocation and the reply through the
// caller's reused reply Request — and returns what was violated.
func sweepRun(t *testing.T, f fabric.Faults) (violations []string) {
	const (
		clients   = 4
		perClient = 50
	)
	bad := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}
	run(t, core.ClusterConfig{Nodes: 2, Faults: f}, func(tk *sim.Task, cl *core.Cluster) {
		srv := proc.Attach(cl, 1, "null", 0)
		root, err := srv.RequestCreate(tk, 1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		cli := proc.Attach(cl, 0, "callers", 0)
		req, err := proc.GrantCap(srv, root, cli)
		if err != nil {
			t.Fatal(err)
		}
		delivered := make(map[uint64]int)
		cl.K.Spawn("null-loop", func(st *sim.Task) {
			for {
				d, ok := srv.Receive(st)
				if !ok {
					return
				}
				delivered[d.U64(0)]++
				if rep, ok := d.Cap(0); ok {
					_ = srv.Invoke(st, rep, []wire.ImmArg{proc.U64Arg(0, d.U64(0))}, nil)
				}
				d.Done()
			}
		})
		call := func(ct *sim.Task, id uint64) error {
			dv, err := cli.Call(ct, req, []wire.ImmArg{proc.U64Arg(0, id)}, nil, 0)
			if err == nil && dv.U64(0) != id {
				err = fmt.Errorf("call %d was answered %d", id, dv.U64(0))
			}
			return err
		}
		c0, c1 := cl.CtrlFor(0), cl.CtrlFor(1)
		held := func() [4]int64 {
			return [4]int64{c0.Footprint().CapSpaceBytes, int64(c0.ObjectCount()),
				c1.Footprint().CapSpaceBytes, int64(c1.ObjectCount())}
		}
		// Quiescence: the last deliveries and their DeliverDones drain,
		// the last resent acknowledgement has arrived.
		settle := func() {
			for budget := core.RPCBudget; budget > 0 && c0.PendingCalls()+c1.PendingCalls() != 0; budget -= fms {
				tk.Sleep(fms)
			}
			tk.Sleep(5 * fms)
		}
		// Warm-up: one call per client, all at once, creates every reply
		// Request the run will use.
		load.Closed{Clients: clients, PerClient: 1}.Run(tk,
			func(ct *sim.Task, client, _ int) error { return call(ct, uint64(1000+client)) })
		settle()
		warm := held()

		succeeded := make(map[uint64]bool)
		start := tk.Now()
		stats := load.Closed{Clients: clients, PerClient: perClient}.Run(tk,
			func(ct *sim.Task, client, seq int) error {
				id := uint64(client*perClient+seq) + 1
				err := call(ct, id)
				succeeded[id] = err == nil
				return err
			})
		elapsed := tk.Now() - start
		settle()
		if got := held(); got != warm {
			bad("{caller space, objects, provider space, objects} = %v at quiescence, %v after the warm-up", got, warm)
		}

		if got := stats.Requests + stats.Errors; got != clients*perClient {
			bad("%d of %d calls resolved", got, clients*perClient)
		}
		for id, n := range delivered {
			if n > 1 {
				bad("request %d delivered %d times", id, n)
			}
		}
		for id, ok := range succeeded {
			if ok && delivered[id] != 1 {
				bad("request %d succeeded at its caller but was delivered %d times", id, delivered[id])
			}
		}
		if n := c0.PendingCalls() + c1.PendingCalls(); n != 0 {
			bad("%d calls still pending at quiescence", n)
		}
		if n := cl.Net.LiveFrames(); n != 0 {
			bad("%d frames neither delivered nor released at quiescence", n)
		}
		if w, out, q := c1.DeliveryState(srv.ID()); w != core.DefaultWindow || out != 0 || q != 0 {
			bad("provider window not conserved: %d credits (want %d), %d outstanding, %d queued",
				w, core.DefaultWindow, out, q)
		}
		m0, m1 := c0.Metrics(), c1.Metrics()
		if aborted := m0.RPCAborted + m1.RPCAborted; aborted != 0 && elapsed < core.RPCBudget {
			bad("%d calls aborted although the run took %v, inside the %v budget",
				aborted, elapsed, core.RPCBudget)
		}
		fs := cl.Net.FaultStats()
		if retx, lost := m0.Retransmits+m1.Retransmits, fs.Dropped+fs.Duplicated; f.Jitter <= 20*fms/1000 && 2*retx > 3*lost {
			bad("%d retransmits for %d dropped + %d duplicated frames: more than 1.5x is a spurious-resend storm",
				retx, fs.Dropped, fs.Duplicated)
		}
	})
	return violations
}

// TestChaosRetransmitSweep: seeds 1–20 × loss × duplication × jitter.
// Every call resolves, no request reaches the provider twice and every
// request whose caller saw success reached it once and was answered
// once, window credits, the pending table, the fabric's frames, both
// capability spaces and both object counts are conserved (a resent
// CtrlInvoke answered from the at-most-once cache neither disarms a
// reply Request twice nor spends its delegation twice), nothing aborts
// inside the budget,
// and (while jitter stays under the RTO floor) resends track the frames
// the fabric actually lost. A failure names the (seed, faults) tuple
// that reproduces it.
func TestChaosRetransmitSweep(t *testing.T) {
	const us = fms / 1000
	for seed := int64(1); seed <= 20; seed++ {
		for _, drop := range []float64{0.01, 0.05, 0.2} {
			for _, dup := range []float64{0, 0.02} {
				for _, jitter := range []sim.Time{0, 20 * us, 200 * us} {
					f := fabric.Faults{Drop: drop, Dup: dup, Jitter: jitter, Seed: seed}
					for _, v := range sweepRun(t, f) {
						t.Errorf("seed=%d drop=%g dup=%g jitter=%v: %s", seed, drop, dup, jitter, v)
					}
				}
			}
		}
	}
}
