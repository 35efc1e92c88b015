package core_test

// Single-fault sweep: every cross-node frame of a scenario lost, then
// duplicated, one run each (fabric.Faults.Nth). A fault-free run counts
// the frames and is the oracle: whatever the fault, the operation's
// outcome is the fault-free one, a lost frame costs exactly the one
// resend of the call it belongs to, a duplicate none, the at-most-once
// cache answers a repeat without refusing it, and once the operation is
// over every capability space, object count and pending-call table is
// back where the fault-free run left it. `go test` sweeps a subset;
// FRACTOS_SWEEP=full (`make chaos`) sweeps every frame.

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"

	"fractos/internal/app/faceverify"
	"fractos/internal/core"
	"fractos/internal/fabric"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/testbed/stacks"
	"fractos/internal/wire"
)

// faultScenario is one scenario of the sweep: setup deploys it on a
// fresh cluster and returns its operation, which renders its status and
// result as a string (nil: set-up failed, and said so).
type faultScenario struct {
	name  string
	nodes int
	setup func(t *testing.T, tk *sim.Task, cl *core.Cluster) func(*sim.Task) string
}

// faultRun is what one run of a scenario leaves to compare: the
// operation's outcome; the Controllers' resends, refusals and parked
// calls summed; each Controller's capability-space bytes
// and objects; and the types of the cross-node frames of set-up and of
// the operation, in send order.
type faultRun struct {
	outcome       string
	retx, refused int64
	pending       int
	faults        fabric.FaultStats
	census        [][2]int64
	setup, frames []wire.Type
}

// faultSettle is how long a run waits after its operation returns
// before it takes its census: a lost frame's resend goes out within a
// few round trips, far inside it.
const faultSettle = 2 * fms

func runFaultScenario(t *testing.T, sc faultScenario, f fabric.Faults) faultRun {
	var r faultRun
	run(t, testbed.Spec{Nodes: sc.nodes}, func(tk *sim.Task, cl *core.Cluster) {
		cl.Net.InstallFaults(f)
		inOp := false
		cl.Net.SetTrace(func(e fabric.TraceEvent) {
			from, _ := cl.Net.Lookup(e.From)
			to, _ := cl.Net.Lookup(e.To)
			switch {
			case e.RDMA || from.Loc.Node == to.Loc.Node:
			case inOp:
				r.frames = append(r.frames, e.Type)
			default:
				r.setup = append(r.setup, e.Type)
			}
		})
		op := sc.setup(t, tk, cl)
		if op == nil {
			return
		}
		inOp = true
		r.outcome = op(tk)
		tk.Sleep(faultSettle)
		r.faults = cl.Net.FaultStats()
		for _, c := range cl.Ctrls {
			m := c.Metrics()
			r.retx, r.refused = r.retx+m.Retransmits, r.refused+m.InvokesRefused
			r.pending += c.PendingCalls()
			r.census = append(r.census, [2]int64{c.Footprint().CapSpaceBytes, int64(c.ObjectCount())})
		}
	})
	return r
}

// resent reports whether a Controller resends a lost frame of type ty:
// the questions of its inter-Controller calls and their answers.
// Notifications and epoch announcements (after TCtrlWatch) are told once.
func resent(ty wire.Type) bool {
	return ty >= wire.TCtrlDeriveMem && ty <= wire.TCtrlWatch
}

// sweep runs sc fault-free, then once with each selected frame of its
// operation lost and once with it duplicated, and checks each run
// against the fault-free one. pick selects the frames, numbered from 1,
// of the n the operation sends.
func sweep(t *testing.T, sc faultScenario, pick func(n int) []int) {
	ref := runFaultScenario(t, sc, fabric.Faults{})
	if ref.outcome == "" || ref.retx != 0 || ref.pending != 0 || len(ref.frames) == 0 {
		t.Errorf("%s, fault-free: outcome %q, %d resends, %d calls parked, %d cross-node frames",
			sc.name, ref.outcome, ref.retx, ref.pending, len(ref.frames))
		return
	}
	// Frames are numbered from the first of set-up: the subset sweeps
	// the operation's, the full sweep set-up's too.
	all := slices.Concat(ref.setup, ref.frames)
	ks := pick(len(ref.frames))
	for i := range ks {
		ks[i] += len(ref.setup)
	}
	if os.Getenv("FRACTOS_SWEEP") == "full" {
		ks = every(len(all), 1)
	}
	t.Logf("%s: %d cross-node frames after %d of set-up, %d of all of them lost and duplicated: %v",
		sc.name, len(ref.frames), len(ref.setup), len(ks), all)
	for _, k := range ks {
		ty := all[k-1]
		for _, dup := range []bool{false, true} {
			got := runFaultScenario(t, sc, fabric.Faults{Nth: k, NthDup: dup})
			var retx int64
			what, injected := "duplicated", fabric.FaultStats{Duplicated: 1}
			if !dup {
				what, injected = "lost", fabric.FaultStats{Dropped: 1}
				if resent(ty) {
					retx = 1
				}
			}
			switch {
			case got.faults != injected:
				t.Errorf("%s, frame %d (type %d) %s: the fabric injected %+v", sc.name, k, ty, what, got.faults)
			case got.outcome != ref.outcome:
				t.Errorf("%s, frame %d (type %d) %s: outcome %q, fault-free %q", sc.name, k, ty, what, got.outcome, ref.outcome)
			case got.retx != retx:
				t.Errorf("%s, frame %d (type %d) %s: %d resends, want %d", sc.name, k, ty, what, got.retx, retx)
			case got.refused != ref.refused:
				t.Errorf("%s, frame %d (type %d) %s: %d invocations refused, fault-free %d", sc.name, k, ty, what, got.refused, ref.refused)
			case got.pending != 0:
				t.Errorf("%s, frame %d (type %d) %s: %d calls still parked", sc.name, k, ty, what, got.pending)
			case !reflect.DeepEqual(got.census, ref.census):
				t.Errorf("%s, frame %d (type %d) %s: {cap-space bytes, objects} per Controller %v, fault-free %v", sc.name, k, ty, what, got.census, ref.census)
			}
		}
	}
}

// every returns 1, 1+stride, 1+2·stride, … up to n.
func every(n, stride int) []int {
	var ks []int
	for k := 1; k <= n; k += stride {
		ks = append(ks, k)
	}
	return ks
}

// callScenario is a warm cross-node Call from node 0 to a provider on
// node 1 that answers through the reply capability the call passed:
// the operation is the second call, its outcome the reply's first
// immediate. Every libfractos syscall in it blocks except the answer,
// which waits for nothing: a Process whose syscall lost its completion
// would leave the run unfinished.
func callScenario(name string, serve func(srv *proc.Process)) faultScenario {
	return faultScenario{name: name, nodes: 2, setup: func(t *testing.T, tk *sim.Task, cl *core.Cluster) func(*sim.Task) string {
		srv, cli := proc.Attach(cl, 1, "srv", 0), proc.Attach(cl, 0, "cli", 0)
		req, err := srv.RequestCreate(tk, 1, nil, nil)
		if err != nil {
			t.Error(err)
			return nil
		}
		creq, err := proc.GrantCap(srv, req, cli)
		if err != nil {
			t.Error(err)
			return nil
		}
		serve(srv)
		call := func(tk *sim.Task) string {
			dv, err := cli.Call(tk, creq, []wire.ImmArg{proc.U64Arg(0, 41)}, nil, 0)
			if err != nil {
				return err.Error()
			}
			return fmt.Sprint(dv.U64(0))
		}
		if got := call(tk); got != "42" { // creates the reply Request, samples the round trip
			t.Errorf("%s: warm-up call answered %q", name, got)
			return nil
		}
		return call
	}}
}

// answer is the provider's answer to an invocation: its first immediate
// plus one.
func answer(d *proc.Delivery) []wire.ImmArg { return []wire.ImmArg{proc.U64Arg(0, d.U64(0)+1)} }

// replyScenario answers with Delivery.Reply, the replicas' path: on a
// lossy fabric the owner acknowledges it, and nobody waits.
var replyScenario = callScenario("call answered by Reply", func(srv *proc.Process) {
	srv.Serve("srv", 1, func(_ *sim.Task, d *proc.Delivery) {
		_ = d.Reply(0, answer(d), nil)
		d.Release()
	})
})

// invokeScenario answers with a blocking Invoke through the delivered
// reply capability, a Once entry: the echo server's path.
var invokeScenario = callScenario("call answered by Invoke", func(srv *proc.Process) {
	srv.Serve("srv", 1, func(st *sim.Task, d *proc.Delivery) {
		if rep, ok := d.Cap(0); ok {
			_ = srv.Invoke(st, rep, answer(d), nil)
		}
		d.Release()
	})
})

// routedScenario is a warm routed Call: a route.Balancer on node 0 calls
// the one route.Replica on node 1, which answers with Delivery.Reply. The
// operation is the second request, whose outcome is its error; the
// first resolves the service's members at the registry.
var routedScenario = faultScenario{name: "routed call", nodes: 2,
	setup: func(t *testing.T, tk *sim.Task, cl *core.Cluster) func(*sim.Task) string {
		s := &stacks.Routed{Replicas: 1, Nodes: []int{1}}
		s.Deploy(tk, &testbed.Deployment{Cl: cl})
		if err := s.Do(tk, 1, us(10)); err != nil {
			t.Errorf("routed call: warm-up request: %v", err)
			return nil
		}
		return func(tk *sim.Task) string { return fmt.Sprint(s.Do(tk, 2, us(10))) }
	}}

// copyScenario is a cross-node memory_copy of two bounce chunks each
// way: node 0 pushes its region into node 1's, then pulls node 1's back
// over it, once node 1 has written a new pattern there. The outcome is
// each copy's error and whether the bytes landed. A first push samples
// the round trip.
var copyScenario = faultScenario{name: "memory_copy push and pull", nodes: 2,
	setup: func(t *testing.T, tk *sim.Task, cl *core.Cluster) func(*sim.Task) string {
		local, pairs := newCopyPairs(t, tk, cl, 1, 2*core.DefaultBounceChunk)
		if local == nil {
			return nil
		}
		p := &pairs[0]
		if err := local.MemoryCopy(tk, p.src, p.dst); err != nil || !p.arrived() {
			t.Errorf("memory_copy: warm-up push: %v, landed %v", err, p.arrived())
			return nil
		}
		return func(tk *sim.Task) string {
			for j := range p.from {
				p.from[j] = byte(j % 241)
			}
			pushErr := local.MemoryCopy(tk, p.src, p.dst)
			pushed := p.arrived()
			for j := range p.to {
				p.to[j] = byte(j % 239)
			}
			pullErr := local.MemoryCopy(tk, p.dst, p.src)
			return fmt.Sprintf("push %v %v, pull %v %v", pushErr, pushed, pullErr, p.arrived())
		}
	}}

// callWithScenario is a warm CallWith from node 0 to a provider on
// node 1 whose continuation is a Request of a forwarder's on node 2,
// derived there with the caller's reply Request preset: the provider
// answers the forwarder, the forwarder the caller, through that preset
// copy. The operation is the second call, its outcome the reply's first
// immediate.
var callWithScenario = faultScenario{name: "CallWith through a preset continuation", nodes: 3,
	setup: func(t *testing.T, tk *sim.Task, cl *core.Cluster) func(*sim.Task) string {
		cli, srv, fwd := proc.Attach(cl, 0, "cli", 0), proc.Attach(cl, 1, "srv", 0), proc.Attach(cl, 2, "fwd", 0)
		srv.Serve("srv", 1, func(_ *sim.Task, d *proc.Delivery) {
			_ = d.Reply(0, answer(d), nil)
			d.Release()
		})
		fwd.Serve("fwd", 1, func(_ *sim.Task, d *proc.Delivery) {
			_ = d.Reply(0, answer(d), nil)
			d.Release()
		})
		var creq, cfwd, cont, reply proc.Cap
		var tag uint64
		req, err := srv.RequestCreate(tk, 1, nil, nil)
		if err == nil {
			creq, err = proc.GrantCap(srv, req, cli)
		}
		if err == nil {
			cfwd, err = fwd.RequestCreate(tk, 1, nil, nil)
		}
		if err == nil {
			cfwd, err = proc.GrantCap(fwd, cfwd, cli)
		}
		if err == nil {
			reply, tag, err = cli.ReplyRequest(tk)
		}
		if err == nil {
			cont, err = cli.Derive(tk, cfwd, nil, []proc.Arg{{Slot: 0, Cap: reply}})
		}
		if err != nil {
			t.Error(err)
			return nil
		}
		call := func(tk *sim.Task) string {
			dv, err := cli.CallWith(tk, creq, []wire.ImmArg{proc.U64Arg(0, 40)}, []proc.Arg{{Slot: 0, Cap: cont}}, reply, tag)
			if err != nil {
				return err.Error()
			}
			return fmt.Sprint(dv.U64(0))
		}
		if got := call(tk); got != "42" { // samples the round trips
			t.Errorf("CallWith: warm-up call answered %q", got)
			return nil
		}
		return call
	}}

// faceVerifyScenario is one face-verification request on fractos-trace's
// set-up: batch 8, one file, one pipeline slot, four nodes. Its outcome
// is the error and the verdicts.
var faceVerifyScenario = faultScenario{name: "face verification", nodes: 4,
	setup: func(t *testing.T, tk *sim.Task, cl *core.Cluster) func(*sim.Task) string {
		app, err := faceverify.SetupFractOS(tk, cl, faceverify.Config{Batch: 8, Files: 1, Slots: 1})
		if err != nil {
			t.Error(err)
			return nil
		}
		req := faceverify.MakeRequest(app.DB, 0, 8, rand.New(rand.NewSource(1)))
		return func(tk *sim.Task) string {
			out, err := app.VerifyBatch(tk, req)
			return fmt.Sprintf("%v %x %v", err, out, req.CheckResults(out))
		}
	}}

// TestFaultSweepReply loses and duplicates each frame of a warm
// cross-node Call answered by Reply.
func TestFaultSweepReply(t *testing.T) {
	sweep(t, replyScenario, func(n int) []int { return every(n, 1) })
}

// TestFaultSweepInvoke loses and duplicates each frame of a warm
// cross-node Call answered by a blocking Invoke through a Once entry.
func TestFaultSweepInvoke(t *testing.T) {
	sweep(t, invokeScenario, func(n int) []int { return every(n, 1) })
}

// TestFaultSweepRouted loses and duplicates each frame of a warm routed
// Call answered by Reply.
func TestFaultSweepRouted(t *testing.T) {
	sweep(t, routedScenario, func(n int) []int { return every(n, 1) })
}

// TestFaultSweepCopy loses and duplicates each frame of a cross-node
// memory_copy push and pull.
func TestFaultSweepCopy(t *testing.T) {
	sweep(t, copyScenario, func(n int) []int { return every(n, 1) })
}

// TestFaultSweepCallWith loses and duplicates each frame of a warm
// CallWith answered through a continuation preset at a third Controller.
func TestFaultSweepCallWith(t *testing.T) {
	sweep(t, callWithScenario, func(n int) []int { return every(n, 1) })
}

// TestFaultSweepFaceVerify loses and duplicates frames of one
// face-verification request: every third under `go test`, each of them
// under FRACTOS_SWEEP=full.
func TestFaultSweepFaceVerify(t *testing.T) {
	sweep(t, faceVerifyScenario, func(n int) []int { return every(n, 3) })
}
