package proc_test

// Call's convention and the error legs of its state machine (call.go):
// reply Requests are reused and their delegations single-use, so calls
// leave nothing behind in any capability space — answered, refused or
// timed out — and a call whose channel to the Controller is severed
// part-way returns instead of waiting for a completion nobody will send.

import (
	"errors"
	"testing"

	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/fabric"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/wire"
)

// callPair is a provider of one Request and a caller holding it on node
// 0. With the provider on node 1 each is alone at its Controller: that
// Controller's footprint is the one Process's capability space.
type callPair struct {
	cl        *core.Cluster
	srv, cli  *proc.Process
	req, creq proc.Cap
}

func newCallPair(t *testing.T, tk *sim.Task, cl *core.Cluster, srvNode int) *callPair {
	t.Helper()
	c := &callPair{cl: cl, srv: proc.Attach(cl, srvNode, "srv", 0), cli: proc.Attach(cl, 0, "cli", 0)}
	var err error
	if c.req, err = c.srv.RequestCreate(tk, 1, nil, nil); err != nil {
		t.Error(err)
	}
	if c.creq, err = proc.GrantCap(c.srv, c.req, c.cli); err != nil {
		t.Error(err)
	}
	return c
}

// echo serves the provider's Receive queue: each invocation is answered
// through the capability in slot 0 with its first immediate plus one,
// before its Done or after. first, if set, is shown the first
// invocation's reply capability before the answer leaves.
func (c *callPair) echo(doneFirst bool, first func(st *sim.Task, rep proc.Cap)) {
	c.cl.K.Spawn("echo", func(st *sim.Task) {
		for {
			d, ok := c.srv.Receive(st)
			if !ok {
				return
			}
			rep, _ := d.Cap(0)
			if first != nil {
				first(st, rep)
				first = nil
			}
			if doneFirst {
				d.Done()
			}
			_ = c.srv.Invoke(st, rep, []wire.ImmArg{proc.U64Arg(0, d.U64(0)+1)}, nil)
			d.Done()
		}
	})
}

// call is one Call of the pair's Request that must come back echoed.
func (c *callPair) call(t *testing.T, tk *sim.Task, v uint64) bool {
	t.Helper()
	dv, err := c.cli.Call(tk, c.creq, []wire.ImmArg{proc.U64Arg(0, v)}, nil, 0)
	if err != nil || dv.U64(0) != v+1 {
		t.Errorf("call %d: %v, %v; want the echo", v, dv, err)
		return false
	}
	return true
}

// held is what the two Controllers keep: capability-space bytes and live
// objects, the caller's then the provider's.
func (c *callPair) held() [4]int64 {
	c0, c1 := c.cl.CtrlFor(0), c.cl.CtrlFor(1)
	return [4]int64{c0.Footprint().CapSpaceBytes, int64(c0.ObjectCount()),
		c1.Footprint().CapSpaceBytes, int64(c1.ObjectCount())}
}

// nothingReceived checks that no invocation reached cli's Receive queue.
func nothingReceived(t *testing.T, tk *sim.Task, cli *proc.Process) {
	t.Helper()
	if d, err := receive(tk, cli).WaitTimeout(tk, us(100)); err == nil {
		t.Errorf("an invocation with tag %#x reached the caller's Receive queue", d.Tag)
	}
}

// TestCallLeavesNothingBehind: a thousand Calls later both capability
// spaces and both Controllers' object counts are where the first call
// left them — the caller reuses its reply Request, and the provider's
// Controller drops the delegated reply capability the moment it has been
// invoked, whether the provider answers before its Done or after, from
// another node or from the caller's own.
func TestCallLeavesNothingBehind(t *testing.T) {
	for _, tc := range []struct {
		srvNode   int
		doneFirst bool
	}{{1, false}, {1, true}, {0, false}} {
		srvNode, doneFirst := tc.srvNode, tc.doneFirst
		run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
			c := newCallPair(t, tk, cl, srvNode)
			c.echo(doneFirst, nil)
			if !c.call(t, tk, 0) {
				return
			}
			tk.Sleep(us(100)) // the owner's answer to the provider's Controller
			after1 := c.held()
			before := cl.CtrlFor(0).Metrics()
			for i := uint64(1); i <= 1000; i++ {
				if !c.call(t, tk, i) {
					return
				}
			}
			tk.Sleep(us(100))
			if got := c.held(); got != after1 {
				t.Errorf("provider on node %d, done first %v: after 1000 more calls {caller space, objects, provider space, objects} = %v, after the first %v",
					srvNode, doneFirst, got, after1)
			}
			m := cl.CtrlFor(0).Metrics()
			if m.ReqCreates != before.ReqCreates || m.CapOps != before.CapOps {
				t.Errorf("1000 warm calls posted %d request_create and %d capability syscalls, want none",
					m.ReqCreates-before.ReqCreates, m.CapOps-before.CapOps)
			}
		})
	}
}

// TestConcurrentCallsUseDistinctReplyRequests: K Calls in progress at
// once on one Process pass K different reply Requests, and K is all the
// Process ever creates: later rounds, as deep or shallower, reuse them —
// the same objects (the slot half of the ObjectID), each delegation under
// a name of its own.
func TestConcurrentCallsUseDistinctReplyRequests(t *testing.T) {
	const k = 5
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		c := newCallPair(t, tk, cl, 1)
		c0, c1 := cl.CtrlFor(0), cl.CtrlFor(1)
		// The provider answers a round only once all depth of it has arrived.
		depth := 0
		var seen []map[uint32]bool
		names := make(map[cap.Ref]bool)
		cl.K.Spawn("rounds", func(st *sim.Task) {
			for {
				var ds []*proc.Delivery
				refs := make(map[uint32]bool)
				for len(ds) == 0 || len(ds) < depth {
					d, ok := c.srv.Receive(st)
					if !ok {
						return
					}
					rep, _ := d.Cap(0)
					e, _ := c1.EntryOf(c.srv.ID(), rep.ID())
					refs[uint32(e.Ref.Obj)] = true
					if names[e.Ref] {
						t.Errorf("%v was delegated twice", e.Ref)
					}
					names[e.Ref] = true
					ds = append(ds, d)
				}
				seen = append(seen, refs)
				for _, d := range ds {
					rep, _ := d.Cap(0)
					_ = c.srv.Invoke(st, rep, []wire.ImmArg{proc.U64Arg(0, d.U64(0)+1)}, nil)
					d.Done()
				}
			}
		})
		objects := c0.ObjectCount()
		for round, n := range []int{k, k, 3} {
			creates := c0.Metrics().ReqCreates
			depth = n
			var wg sim.WaitGroup
			wg.Add(n)
			for i := 0; i < n; i++ {
				cl.K.Spawn("caller", func(ct *sim.Task) {
					defer wg.Done()
					c.call(t, ct, uint64(100*round+i))
				})
			}
			wg.Wait(tk)
			want := 0
			if round == 0 {
				want = k
			}
			if got := c0.Metrics().ReqCreates - creates; got != int64(want) {
				t.Errorf("round %d, %d calls at once: %d reply Requests created, want %d", round, n, got, want)
			}
			if len(seen) != round+1 || len(seen[round]) != n {
				t.Errorf("round %d: %d calls at once passed %d distinct reply Requests", round, n, len(seen[round]))
				return
			}
			for obj := range seen[round] {
				if !seen[0][obj] {
					t.Errorf("round %d passed object %d, which is not one of the first round's %d", round, obj, k)
				}
			}
		}
		if got := c0.ObjectCount() - objects; got != k {
			t.Errorf("the caller's Controller holds %d reply Requests, want %d", got, k)
		}
	})
}

// TestCallKeepsItsImmediates: a Call that finds every reply Request in
// use posts a request_create first and its invocation only once that
// completes, while its caller is blocked (and the busy call's invocation
// awaits its reply, which completes it). Call copies the immediates when
// it is entered, so another task that rewrites the bytes behind the
// caller's BytesArg meanwhile changes nothing the provider receives.
func TestCallKeepsItsImmediates(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		c := newCallPair(t, tk, cl, 1)
		var got []byte
		cl.K.Spawn("provider", func(st *sim.Task) {
			for {
				d, ok := c.srv.Receive(st)
				if !ok {
					return
				}
				if d.U64(0) == 1 {
					st.Sleep(us(100)) // the holder's call keeps the reply Request busy
				}
				got = append(got[:0], d.Imms...)
				rep, _ := d.Cap(0)
				_ = c.srv.Invoke(st, rep, nil, nil)
				d.Done()
			}
		})
		if _, err := c.cli.Call(tk, c.creq, nil, nil, 0); err != nil { // makes the one reply Request
			t.Error(err)
			return
		}
		cl.K.Spawn("holder", func(ht *sim.Task) {
			_, _ = c.cli.Call(ht, c.creq, []wire.ImmArg{proc.U64Arg(0, 1)}, nil, 0)
		})
		tk.Sleep(us(20))
		creates := cl.CtrlFor(0).Metrics().ReqCreates
		buf := []byte("as sent!")
		cl.K.Spawn("rewriter", func(*sim.Task) {
			if c.cli.Pending() != 2 || cl.CtrlFor(0).Metrics().ReqCreates != creates {
				t.Errorf("%d syscalls pending, %d reply Requests created: want the request_create outstanding",
					c.cli.Pending(), cl.CtrlFor(0).Metrics().ReqCreates-creates)
			}
			copy(buf, "rewrote!")
		})
		if _, err := c.cli.Call(tk, c.creq, []wire.ImmArg{proc.BytesArg(0, buf)}, nil, 0); err != nil {
			t.Error(err)
			return
		}
		if cl.CtrlFor(0).Metrics().ReqCreates != creates+1 || string(buf) != "rewrote!" || string(got) != "as sent!" {
			t.Errorf("%d reply Requests created, caller's bytes %q; the provider received %q, want %q",
				cl.CtrlFor(0).Metrics().ReqCreates-creates, buf, got, "as sent!")
		}
	})
}

// TestReplyCapabilityIsSingleUse: the delegated reply capability is good
// for one invocation. A second one through it finds the entry gone, and
// a copy handed to a third Process before the answer is refused at the
// owner once the call is over — neither reaches the caller, whose next
// call reuses the Request undisturbed.
func TestReplyCapabilityIsSingleUse(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		c := newCallPair(t, tk, cl, 1)
		spy := proc.Attach(cl, 1, "spy", 0)
		var kept, copied proc.Cap
		c.echo(false, func(st *sim.Task, rep proc.Cap) {
			var err error
			if copied, err = proc.GrantCap(c.srv, rep, spy); err != nil {
				t.Error(err)
			}
			kept = rep
		})
		if !c.call(t, tk, 1) {
			return
		}
		tk.Sleep(us(100))
		if err := c.srv.Invoke(tk, kept, nil, nil); !wire.IsStatus(err, wire.StatusNoCap) {
			t.Errorf("second invocation through a delivered reply capability: %v, want StatusNoCap", err)
		}
		if err := spy.Invoke(tk, copied, nil, nil); !wire.IsStatus(err, wire.StatusRevoked) {
			t.Errorf("invocation through a copy kept past the reply: %v, want StatusRevoked", err)
		}
		nothingReceived(t, tk, c.cli)
		c.call(t, tk, 2)
	})
}

// TestCallRefusedInvokeReturnsReplyRequest: the Request is revoked at
// its owner as a warm call invokes it, so the invocation comes back
// StatusRevoked. The call must return that status and leave the caller's
// capability space as the first call left it, with no syscall spent on
// it: the reply Request goes back to the set — disarmed, so the copy of
// its delegation an earlier provider kept does not deliver.
func TestCallRefusedInvokeReturnsReplyRequest(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		c := newCallPair(t, tk, cl, 1)
		spy := proc.Attach(cl, 1, "spy", 0)
		var copied proc.Cap
		c.echo(false, func(st *sim.Task, rep proc.Cap) {
			var err error
			if copied, err = proc.GrantCap(c.srv, rep, spy); err != nil {
				t.Error(err)
			}
		})
		if !c.call(t, tk, 1) {
			return
		}
		tk.Sleep(us(100))
		ctrl := cl.CtrlFor(0)
		after1, before := ctrl.Footprint().CapSpaceBytes, ctrl.Metrics()
		// The owner has revoked before the forwarded invocation arrives,
		// and its cleanup broadcast purges creq here only after the
		// invocation has left.
		cl.K.Spawn("revoker", func(rt *sim.Task) {
			if err := c.srv.Revoke(rt, c.req); err != nil {
				t.Error(err)
			}
		})
		dv, err := c.cli.Call(tk, c.creq, nil, nil, 0)
		if dv != nil || !wire.IsStatus(err, wire.StatusRevoked) {
			t.Errorf("call of a Request revoked under it: %v, %v; want StatusRevoked", dv, err)
		}
		tk.Sleep(us(100))
		// The first call's entries, less creq once the cleanup has purged it.
		want := after1
		if _, still := ctrl.EntryOf(c.cli.ID(), c.creq.ID()); !still {
			want -= after1 / 2
		}
		if got := ctrl.Footprint().CapSpaceBytes; got != want {
			t.Errorf("capability space after the refused call: %d bytes, want %d", got, want)
		}
		if m := ctrl.Metrics(); m.CapOps != before.CapOps || m.ReqCreates != before.ReqCreates {
			t.Errorf("the refused call posted %d capability syscalls and %d request_create, want none",
				m.CapOps-before.CapOps, m.ReqCreates-before.ReqCreates)
		}
		if err := spy.Invoke(tk, copied, nil, nil); !wire.IsStatus(err, wire.StatusRevoked) {
			t.Errorf("invocation through a kept copy after a refused call: %v, want StatusRevoked: the Request stayed armed", err)
		}
		nothingReceived(t, tk, c.cli)
	})
}

// TestCallTimeoutRetiresReplyRequest: a call whose deadline passes
// revokes its reply Request and never uses it again — the late answer
// bounces — and the next call creates one.
func TestCallTimeoutRetiresReplyRequest(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		c := newCallPair(t, tk, cl, 1)
		var late proc.Cap
		swallowed := sim.NewFuture[struct{}]()
		cl.K.Spawn("slow-then-echo", func(st *sim.Task) {
			d, ok := c.srv.Receive(st)
			if !ok {
				return
			}
			late, _ = d.Cap(0)
			d.Done()
			swallowed.Set(struct{}{})
			c.echo(false, nil)
		})
		ctrl := cl.CtrlFor(0)
		if _, err := c.cli.CallTimeout(tk, c.creq, nil, nil, 0, us(200)); !errors.Is(err, proc.ErrCallTimeout) {
			t.Errorf("unanswered call: %v, want ErrCallTimeout", err)
		}
		if _, err := swallowed.Wait(tk); err != nil {
			t.Error(err)
		}
		tk.Sleep(us(100))
		if err := c.srv.Invoke(tk, late, nil, nil); err == nil {
			t.Error("an answer after the deadline was accepted")
		}
		nothingReceived(t, tk, c.cli)
		before, objects := ctrl.Metrics(), ctrl.ObjectCount()
		if objects != 0 {
			t.Errorf("%d live objects at the caller's Controller after the timeout, want 0: the reply Request was not revoked", objects)
		}
		if !c.call(t, tk, 7) {
			return
		}
		if got := ctrl.Metrics().ReqCreates - before.ReqCreates; got != 1 {
			t.Errorf("the call after a timeout created %d reply Requests, want 1: the revoked one must not be reused", got)
		}
		c.call(t, tk, 8)
		if got := ctrl.Metrics().ReqCreates - before.ReqCreates; got != 1 {
			t.Errorf("two calls after a timeout created %d reply Requests, want 1", got)
		}
	})
}

// TestCallLateReplySweep sweeps the provider's answer across a Call's
// deadline, a quarter microsecond at a time. An answer the caller's
// Controller admits before the deadline's cap_revoke reaches it, but
// which reaches the caller after the deadline has fired, is acked at once
// and discarded: no waiter claims its reply tag, nothing reaches Receive,
// and the delivery window gets its credit back — with a window of one,
// the next Call could not be answered otherwise. An answer that comes
// later bounces at the revoked reply Request.
func TestCallLateReplySweep(t *testing.T) {
	const deadline = 200 * sim.Time(1000)
	outcomes := map[string]int{}
	for at := deadline - us(10); at <= deadline+us(20); at += 250 {
		cfg := testbed.Spec{Nodes: 2, Ctrl: core.Config{Window: 1}}
		run(t, cfg, func(tk *sim.Task, cl *core.Cluster) {
			c := newCallPair(t, tk, cl, 1)
			start := tk.Now()
			var answerErr error
			answered := sim.NewFuture[struct{}]()
			cl.K.Spawn("answer-at", func(st *sim.Task) {
				d, ok := c.srv.Receive(st)
				if !ok {
					return
				}
				rep, _ := d.Cap(0)
				d.Done()
				st.Sleep(start + at - st.Now())
				answerErr = c.srv.Invoke(st, rep, nil, nil)
				answered.Set(struct{}{})
			})
			_, err := c.cli.CallTimeout(tk, c.creq, nil, nil, 0, deadline)
			if _, werr := answered.Wait(tk); werr != nil {
				t.Error(werr)
				return
			}
			nothingReceived(t, tk, c.cli)
			outcome := "answered"
			switch {
			case err != nil && !errors.Is(err, proc.ErrCallTimeout):
				t.Errorf("answer at %v: call %v, want the reply or ErrCallTimeout", at, err)
				return
			case err != nil && answerErr == nil:
				outcome = "absorbed"
			case err != nil:
				outcome = "bounced"
			}
			outcomes[outcome]++
			c.echo(false, nil)
			if dv, err := c.cli.CallTimeout(tk, c.creq, []wire.ImmArg{proc.U64Arg(0, 7)}, nil, 0, deadline); err != nil || dv.U64(0) != 8 {
				t.Errorf("answer at %v, %s: the next call got %v, %v; want the echo: the window's credit did not come back", at, outcome, dv, err)
			}
		})
	}
	if outcomes["answered"] == 0 || outcomes["absorbed"] == 0 || outcomes["bounced"] == 0 {
		t.Errorf("outcomes %v: want answers in time, absorbed after the deadline and bounced", outcomes)
	}
}

// TestCallParkedLateReply: at a window of one, with the caller holding an
// unacknowledged delivery parked, a reply still passes: it takes no
// window credit, so one the provider sends before the deadline answers
// the call, and no reply ever waits at the caller's Controller. A reply
// sent after the deadline's cap_revoke bounces.
func TestCallParkedLateReply(t *testing.T) {
	const deadline = 200 * sim.Time(1000)
	for _, tc := range []struct {
		name    string
		at      sim.Time // when the provider answers, after the call starts
		bounces bool
	}{
		{"passes", 0, false},
		{"bounced", deadline + us(50), true},
	} {
		cfg := testbed.Spec{Nodes: 2, Ctrl: core.Config{Window: 1}}
		run(t, cfg, func(tk *sim.Task, cl *core.Cluster) {
			c := newCallPair(t, tk, cl, 1)
			own, err := c.cli.RequestCreate(tk, 9, nil, nil)
			if err != nil {
				t.Error(err)
				return
			}
			theirs, err := proc.GrantCap(c.cli, own, c.srv)
			if err != nil || c.srv.Invoke(tk, theirs, nil, nil) != nil {
				t.Errorf("%s: the caller's own Request: %v", tc.name, err)
				return
			}
			held, _ := c.cli.Receive(tk) // spends the caller's window
			start := tk.Now()
			var answerErr error
			answered := sim.NewFuture[struct{}]()
			cl.K.Spawn("answer-at", func(st *sim.Task) {
				d, _ := c.srv.Receive(st)
				rep, _ := d.Cap(0)
				d.Done()
				st.Sleep(start + tc.at - st.Now())
				answerErr = c.srv.Invoke(st, rep, nil, nil)
				answered.Set(struct{}{})
			})
			_, err = c.cli.CallTimeout(tk, c.creq, nil, nil, 0, deadline)
			if tc.bounces && !errors.Is(err, proc.ErrCallTimeout) || !tc.bounces && err != nil {
				t.Errorf("%s: call %v, want ErrCallTimeout %v", tc.name, err, tc.bounces)
				return
			}
			_, _ = answered.Wait(tk)
			bp := cl.Ctrls[0].Metrics().Backpressured
			if (answerErr != nil) != tc.bounces || bp != 0 {
				t.Errorf("%s: answer %v, %d replies backpressured; want the reply bounced %v, none backpressured",
					tc.name, answerErr, bp, tc.bounces)
			}
			held.Done()
			nothingReceived(t, tk, c.cli)
			if err := c.cli.Null(tk); err != nil {
				t.Errorf("%s: null %v", tc.name, err)
			}
		})
	}
}

// TestNestedCallUnderFullWindow: a server whose deliveries in service
// hold its whole window still gets the reply to the Call it makes while
// serving one, since a reply takes no credit. At window 2, two callers
// each have a request in service at "mid", whose handler calls a backend
// before it answers: both callers get their answer before the deadline,
// and every Process's credits are all back at the end.
func TestNestedCallUnderFullWindow(t *testing.T) {
	const window, deadline = 2, 500 * sim.Time(1000)
	run(t, testbed.Spec{Nodes: 3, Ctrl: core.Config{Window: window}}, func(tk *sim.Task, cl *core.Cluster) {
		mid, back := proc.Attach(cl, 1, "mid", 0), proc.Attach(cl, 2, "back", 0)
		clis := []*proc.Process{proc.Attach(cl, 0, "cli0", 0), proc.Attach(cl, 0, "cli1", 0)}
		backRoot, err := back.RequestCreate(tk, 1, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		backReq, err := proc.GrantCap(back, backRoot, mid)
		if err != nil {
			t.Error(err)
			return
		}
		midRoot, err := mid.RequestCreate(tk, 1, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		back.Handle(func(d *proc.Delivery) {
			_ = d.Reply(0, []wire.ImmArg{proc.U64Arg(0, d.U64(0)+1)}, nil)
			d.Finish()
		})
		mid.Serve("mid", 0, func(st *sim.Task, d *proc.Delivery) {
			dv, err := mid.Call(st, backReq, []wire.ImmArg{proc.U64Arg(0, d.U64(0))}, nil, 0)
			if err != nil {
				t.Errorf("mid's nested call: %v", err)
				return
			}
			_ = d.Reply(0, []wire.ImmArg{proc.U64Arg(0, dv.U64(0)+1)}, nil)
		})
		var got [2]*sim.Future[uint64]
		for i, cli := range clis {
			req, err := proc.GrantCap(mid, midRoot, cli)
			if err != nil {
				t.Error(err)
				return
			}
			f := sim.NewFuture[uint64]()
			got[i] = f
			cl.K.Spawn("call", func(st *sim.Task) {
				dv, err := cli.CallTimeout(st, req, []wire.ImmArg{proc.U64Arg(0, 10)}, nil, 0, deadline)
				if err != nil {
					f.Fail(err)
					return
				}
				f.Set(dv.U64(0))
			})
		}
		for i, f := range got {
			if v, err := f.Wait(tk); err != nil || v != 12 {
				t.Errorf("caller %d: %d, %v; want 12", i, v, err)
			}
		}
		for node, ps := range [][]*proc.Process{clis, {mid}, {back}} {
			for _, p := range ps {
				if w, out, _ := cl.CtrlFor(node).DeliveryState(p.ID()); w+out != window {
					t.Errorf("process %d: %d credits and %d outstanding, want %d in all", p.ID(), w, out, window)
				}
			}
		}
	})
}

// TestCallAbortedInvokeRetiresReplyRequest: the invocation is delivered
// and its acknowledgement is lost for longer than core.RPCBudget, so
// the call ends StatusAborted with the provider holding an armed
// delegation. That is no refusal: the reply Request is revoked and never
// used again, the provider's late answer bounces, and the next call — a
// different value, answered after the late one — gets its own echo and
// nothing else.
func TestCallAbortedInvokeRetiresReplyRequest(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		cl.Net.InstallFaults(fabric.Faults{})
		c := newCallPair(t, tk, cl, 1)
		// The provider echoes the first invocation, and the second only once
		// the third has arrived: late, with the third call's reply Request
		// armed. The path is cut as the second is delivered.
		echo := func(st *sim.Task, d *proc.Delivery) error {
			rep, _ := d.Cap(0)
			return c.srv.Invoke(st, rep, []wire.ImmArg{proc.U64Arg(0, d.U64(0)+1)}, nil)
		}
		var lateErr error
		answeredLate := sim.NewFuture[struct{}]()
		cl.K.Spawn("late-echo", func(st *sim.Task) {
			var ds [3]*proc.Delivery
			for i := range ds {
				var ok bool
				if ds[i], ok = c.srv.Receive(st); !ok {
					return
				}
				if i == 0 {
					_ = echo(st, ds[0])
				}
				ds[i].Done()
			}
			lateErr = echo(st, ds[1])
			answeredLate.Set(struct{}{})
			_ = echo(st, ds[2])
		})
		if !c.call(t, tk, 1) {
			return
		}
		deliveries := 0
		cl.Net.SetTrace(func(ev fabric.TraceEvent) {
			if ev.Type == wire.TDeliver && ev.To == c.srv.Endpoint() {
				if deliveries++; deliveries == 1 {
					cl.Net.PartitionNodes([]int{1}) // the acknowledgement will not cross
				}
			}
		})
		ctrl := cl.CtrlFor(0)
		dv, err := c.cli.Call(tk, c.creq, []wire.ImmArg{proc.U64Arg(0, 10)}, nil, 0)
		if dv != nil || !wire.IsStatus(err, wire.StatusAborted) {
			t.Errorf("call whose acknowledgement was lost: %v, %v; want StatusAborted", dv, err)
		}
		cl.Net.HealPartitions()
		tk.Sleep(us(100))
		if objects := ctrl.ObjectCount(); objects != 0 {
			t.Errorf("%d live objects at the caller's Controller after the aborted call, want 0: the reply Request was not revoked", objects)
		}
		before := ctrl.Metrics()
		if !c.call(t, tk, 20) {
			return
		}
		if _, err := answeredLate.Wait(tk); err != nil {
			t.Error(err)
		}
		if lateErr == nil {
			t.Error("the answer to an aborted call was accepted")
		}
		if got := ctrl.Metrics().ReqCreates - before.ReqCreates; got != 1 {
			t.Errorf("the call after an aborted one created %d reply Requests, want 1: the revoked one must not be reused", got)
		}
		nothingReceived(t, tk, c.cli)
	})
}

// TestCallAbortedAtPeerReboot: the provider's Controller crashes after
// it has accepted a Call, and reboots. On a reliable fabric the accepted
// invocation is still pending at the caller's Controller — the reply
// would have answered it — so the epoch announcement aborts it, and the
// Call fails with StatusAborted as the announcement arrives, long before
// its deadline.
func TestCallAbortedAtPeerReboot(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		c := newCallPair(t, tk, cl, 1)
		cl.K.Spawn("crash-on-accept", func(st *sim.Task) {
			if _, ok := c.srv.Receive(st); !ok { // accepted, never answered
				return
			}
			cl.CtrlFor(1).Crash()
			st.Sleep(us(50))
			cl.CtrlFor(1).Reboot()
		})
		const deadline = 1000 * sim.Time(1000)
		start := tk.Now()
		dv, err := c.cli.CallTimeout(tk, c.creq, nil, nil, 0, deadline)
		if dv != nil || !wire.IsStatus(err, wire.StatusAborted) {
			t.Errorf("call whose provider's Controller rebooted: %v, %v; want StatusAborted", dv, err)
		}
		// The invocation's round trip, the 50 µs down, the announcement's
		// flight and the reply Request's cap_revoke: far under 100 µs.
		if took := tk.Now() - start; took > us(100) {
			t.Errorf("the call failed %v after it started, want it at the epoch announcement (deadline %v)", took, deadline)
		}
	})
}

// TestCallRefusedFailsAtOnce: a warm Call through a Request revoked at
// its owner fails when the owner's refusal comes back, at the same
// instant as while the owner acknowledged every invocation it accepted:
// a refusal is still acknowledged at once.
func TestCallRefusedFailsAtOnce(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		c := newCallPair(t, tk, cl, 1)
		c.echo(false, nil)
		if !c.call(t, tk, 1) {
			return
		}
		tk.Sleep(us(100))
		// The owner revokes before the forwarded invocation arrives, and
		// its cleanup broadcast purges creq here only after it has left.
		cl.K.Spawn("revoker", func(rt *sim.Task) {
			if err := c.srv.Revoke(rt, c.req); err != nil {
				t.Error(err)
			}
		})
		start := tk.Now()
		dv, err := c.cli.Call(tk, c.creq, nil, nil, 0)
		if dv != nil || !wire.IsStatus(err, wire.StatusRevoked) {
			t.Errorf("call of a revoked Request: %v, %v; want StatusRevoked", dv, err)
		}
		if took, want := tk.Now()-start, sim.Time(11945); took != want {
			t.Errorf("the refused call took %v, want %v", took, want)
		}
	})
}

// TestKeptReplyCapabilityCannotAnswerALaterCall: a copy of a delegated
// reply capability, kept past its call, is invoked while a later call of
// the same Process — to another service, through the same reply Request —
// waits for its answer. The delegation of the later call has a name of
// its own, so the copy names nothing: refused, and the later call gets
// its provider's reply, not the forged one.
func TestKeptReplyCapabilityCannotAnswerALaterCall(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		c := newCallPair(t, tk, cl, 1)
		spy := proc.Attach(cl, 1, "spy", 0)
		var copied proc.Cap
		c.echo(false, func(st *sim.Task, rep proc.Cap) {
			var err error
			if copied, err = proc.GrantCap(c.srv, rep, spy); err != nil {
				t.Error(err)
			}
		})
		if !c.call(t, tk, 1) {
			return
		}
		// Another service, which answers only when told to.
		other := proc.Attach(cl, 1, "other", 0)
		oreq, err := other.RequestCreate(tk, 1, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		coreq, err := proc.GrantCap(other, oreq, c.cli)
		if err != nil {
			t.Error(err)
			return
		}
		arrived, answer := sim.NewFuture[struct{}](), sim.NewFuture[struct{}]()
		cl.K.Spawn("other", func(st *sim.Task) {
			d, ok := other.Receive(st)
			if !ok {
				return
			}
			arrived.Set(struct{}{})
			_, _ = answer.Wait(st)
			rep, _ := d.Cap(0)
			_ = other.Invoke(st, rep, []wire.ImmArg{proc.U64Arg(0, 77)}, nil)
			d.Done()
		})
		cl.K.Spawn("forger", func(st *sim.Task) {
			_, _ = arrived.Wait(st)
			if err := spy.Invoke(st, copied, []wire.ImmArg{proc.U64Arg(0, 666)}, nil); !wire.IsStatus(err, wire.StatusRevoked) {
				t.Errorf("invocation through a kept copy during a later call: %v, want StatusRevoked", err)
			}
			answer.Set(struct{}{})
		})
		creates := cl.CtrlFor(0).Metrics().ReqCreates
		dv, err := c.cli.Call(tk, coreq, nil, nil, 0)
		if err != nil || dv.U64(0) != 77 {
			t.Errorf("the later call: %v, %v; want its provider's 77", dv, err)
		}
		if got := cl.CtrlFor(0).Metrics().ReqCreates - creates; got != 0 {
			t.Errorf("the later call created %d reply Requests, want the first call's reused", got)
		}
		nothingReceived(t, tk, c.cli)
	})
}

// severOn cuts the Controller's end of cli's channel the moment the
// Controller sends cli a message of the given type: the message still
// arrives, and whatever cli posts on receiving it finds the channel gone.
func severOn(cl *core.Cluster, cli *proc.Process, typ wire.Type) {
	ctrlEP := cl.CtrlFor(0).EndpointID()
	cl.Net.SetTrace(func(ev fabric.TraceEvent) {
		if ev.Type == typ && ev.From == ctrlEP && ev.To == cli.Endpoint() {
			cl.Net.Disconnect(ctrlEP)
		}
	})
}

// TestCallSeveredBetweenSyscalls: the channel goes between a first
// call's request_create and its request_invoke. The invocation is posted from
// the receive path, not by the caller — so it is the call's record that
// must notice, and wake the caller with ErrDisconnected.
func TestCallSeveredBetweenSyscalls(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		c := newCallPair(t, tk, cl, 1)
		cli, creq := c.cli, c.creq
		severOn(cl, cli, wire.TCompletion)
		dv, err := cli.Call(tk, creq, nil, nil, 0)
		if dv != nil || !errors.Is(err, proc.ErrDisconnected) {
			t.Errorf("call severed after its first syscall: %v, %v; want ErrDisconnected", dv, err)
		}
		// And with a deadline, where a timer would be the only other way out.
		if _, err := cli.CallTimeout(tk, creq, nil, nil, 0, us(100)); !errors.Is(err, proc.ErrDisconnected) {
			t.Errorf("call on the severed channel: %v, want ErrDisconnected", err)
		}
	})
}

// TestCallSeveredAfterReply: the channel goes as the reply arrives. A
// reply takes no acknowledgement, so the call returns it; the next
// syscall finds the channel gone.
func TestCallSeveredAfterReply(t *testing.T) {
	why := "the echo server's invocation of the reply, and with it the server's syscall: the caller's Controller, severed, cannot ack it, and nothing resends on a reliable fabric"
	runLeaving(t, "controller 2 pendingCall 1, srv syscall 1", why, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		c := newCallPair(t, tk, cl, 1)
		c.echo(false, nil)
		cli := c.cli
		severOn(cl, cli, wire.TDeliver)
		dv, err := cli.Call(tk, c.creq, []wire.ImmArg{proc.U64Arg(0, 41)}, nil, 0)
		if err != nil || dv == nil || dv.U64(0) != 42 {
			t.Errorf("call severed as its reply arrived: %v, %v; want the reply", dv, err)
		}
		if err := cli.Null(tk); !errors.Is(err, proc.ErrDisconnected) {
			t.Errorf("syscall after the channel went: %v, want ErrDisconnected", err)
		}
	})
}

// TestReleaseHandsBackOnlyWhatItsDeliveryBrought: Release leaves nothing
// of a delivery in the receiver's capability space, and nothing else is
// touched — not even under the cid of a reply capability its Controller
// dropped when it was invoked and has since reissued to a later delivery,
// which the earlier one's Release still lists.
func TestReleaseHandsBackOnlyWhatItsDeliveryBrought(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		c := newCallPair(t, tk, cl, 1)
		owner := proc.Attach(cl, 0, "owner", 64)
		mem, _, err := owner.AllocMemory(tk, 64, cap.MemRights)
		if err == nil {
			mem, err = proc.GrantCap(owner, mem, c.cli)
		}
		if err != nil {
			t.Error(err)
			return
		}
		idle := cl.CtrlFor(1).Footprint().CapSpaceBytes
		cl.K.Spawn("server", func(st *sim.Task) {
			first, _ := c.srv.Receive(st)
			rep1, _ := first.Cap(0)
			if err := c.srv.Invoke(st, rep1, []wire.ImmArg{proc.U64Arg(0, 1)}, nil); err != nil {
				t.Error(err)
			}
			// The first delivery is still unacknowledged when the caller's
			// next call arrives and takes over the spent reply's cid.
			second, _ := c.srv.Receive(st)
			rep2, _ := second.Cap(0)
			mem2, _ := second.Cap(1)
			if rep2.ID() != rep1.ID() && mem2.ID() != rep1.ID() {
				t.Errorf("the second delivery's cids %d, %d do not reuse the spent reply's %d: the test shows nothing", rep2.ID(), mem2.ID(), rep1.ID())
			}
			first.Release()
			st.Sleep(us(10))
			if _, err := c.srv.MemoryDiminish(st, mem2, 0, 8, 0); err != nil {
				t.Errorf("the second delivery's Memory after the first's Release: %v", err)
			}
			if err := c.srv.Invoke(st, rep2, []wire.ImmArg{proc.U64Arg(0, 2)}, nil); err != nil {
				t.Errorf("the second delivery's reply after the first's Release: %v", err)
			}
			second.Release()
		})
		for v := uint64(1); v <= 2; v++ {
			dv, err := c.cli.Call(tk, c.creq, nil, []proc.Arg{{Slot: 1, Cap: mem}}, 0)
			if err != nil || dv.U64(0) != v {
				t.Errorf("call %d: %v, %v", v, dv, err)
				return
			}
		}
		tk.Sleep(us(100))
		// One entry more than at the start: the view the server derived.
		if got := cl.CtrlFor(1).Footprint().CapSpaceBytes; got != idle+40 {
			t.Errorf("the server's capability space holds %d bytes after two released deliveries, want %d", got, idle+40)
		}
	})
}

// TestSpentReplyDropSparesReissuedCid: the provider posts its answer to
// a cross-node Call without waiting for the completion and hands the
// delivery back at once. Its Controller drops the reply capability as it
// forwards the answer — the delegation is good for one delivery — so the
// hand-back that follows finds the entry gone. Meanwhile a neighbour's
// Call has been delivered, its reply capability under the freed cid.
// Neither the forward-time drop nor the hand-back may touch the
// neighbour's entry: the neighbour gets its answer.
func TestSpentReplyDropSparesReissuedCid(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		c := newCallPair(t, tk, cl, 1)
		near := proc.Attach(cl, 1, "near", 0)
		nreq, err := proc.GrantCap(c.srv, c.req, near)
		if err != nil {
			t.Error(err)
			return
		}
		released := sim.NewFuture[struct{}]()
		var cids [2]cap.CapID
		cl.K.Spawn("server", func(st *sim.Task) {
			for i := range cids {
				d, ok := c.srv.Receive(st)
				if !ok {
					return
				}
				rep, _ := d.Cap(0)
				cids[i] = rep.ID()
				if i == 1 {
					st.Sleep(us(50)) // the first answer has been acknowledged
				}
				if err := d.Reply(0, []wire.ImmArg{proc.U64Arg(0, d.U64(0)+1)}, nil); err != nil {
					t.Error(err)
				}
				d.Release()
				if i == 0 {
					released.Set(struct{}{})
				}
			}
		})
		var answered sim.WaitGroup
		answered.Add(1)
		cl.K.Spawn("near", func(nt *sim.Task) {
			defer answered.Done()
			_, _ = released.Wait(nt)
			dv, err := near.CallTimeout(nt, nreq, []wire.ImmArg{proc.U64Arg(0, 20)}, nil, 0, us(500))
			if err != nil || dv.U64(0) != 21 {
				t.Errorf("the neighbour's call, delivered under the cid the first answer freed: %v, %v; want the echo", dv, err)
			}
		})
		c.call(t, tk, 10)
		answered.Wait(tk)
		if cids[0] != cids[1] {
			t.Errorf("the neighbour's reply capability is cid %d, not the freed %d: the test shows nothing", cids[1], cids[0])
		}
	})
}
