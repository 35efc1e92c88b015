package proc_test

import (
	"errors"
	"testing"

	"fractos/internal/core"
	"fractos/internal/fabric"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/wire"
)

// Each syscall completes exactly once: the end-of-run audit names a
// Process left with a syscall its Controller never answered, or with a
// completion that no syscall waited for.

// TestAuditNamesStrayCompletion: a Completion under a token the Process
// never posted, forged from its Controller's endpoint, fails the run.
func TestAuditNamesStrayCompletion(t *testing.T) {
	why := "a completion that answers no syscall: a Controller that completes one twice sends the second one so"
	runLeaving(t, "app syscall 1", why, testbed.Spec{Nodes: 1}, func(tk *sim.Task, cl *core.Cluster) {
		p := proc.Attach(cl, 0, "app", 0)
		if err := p.Null(tk); err != nil {
			t.Error(err)
			return
		}
		if !cl.Net.Send(cl.CtrlFor(0).EndpointID(), p.Endpoint(), &wire.Completion{Token: 99}) {
			t.Error("the forged completion was not sent")
		}
	})
}

// TestAuditNamesUnansweredSyscall: a syscall whose completion is lost on
// its way — the Process's endpoint goes as it is sent, while its
// Controller still serves the Process — fails the run.
func TestAuditNamesUnansweredSyscall(t *testing.T) {
	why := "a null syscall whose completion never arrives: its caller waits for ever"
	runLeaving(t, "app syscall 1", why, testbed.Spec{Nodes: 1}, func(tk *sim.Task, cl *core.Cluster) {
		p := proc.Attach(cl, 0, "app", 0)
		cl.Net.SetTrace(func(ev fabric.TraceEvent) {
			if ev.Type == wire.TCompletion && ev.To == p.Endpoint() {
				cl.Net.Disconnect(p.Endpoint())
			}
		})
		cl.K.Spawn("null", func(st *sim.Task) { _ = p.Null(st) })
	})
}

// TestAuditNamesUnansweredCallWith: a CallWith whose reply never comes
// keeps its call record lent, and the audit names it, as it does a
// Call's.
func TestAuditNamesUnansweredCallWith(t *testing.T) {
	why := "a CallWith whose provider never answers: its caller waits for ever"
	runLeaving(t, "cli callOp 1", why, testbed.Spec{Nodes: 1}, func(tk *sim.Task, cl *core.Cluster) {
		srv, cli := proc.Attach(cl, 0, "srv", 0), proc.Attach(cl, 0, "cli", 0)
		root, err := srv.RequestCreate(tk, 1, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		req, err := proc.GrantCap(srv, root, cli)
		if err != nil {
			t.Error(err)
			return
		}
		reply, tag, err := cli.ReplyRequest(tk)
		if err != nil {
			t.Error(err)
			return
		}
		srv.Handle(func(d *proc.Delivery) { d.Finish() }) // never answers
		cl.K.Spawn("call", func(st *sim.Task) {
			_, _ = cli.CallWith(st, req, nil, []proc.Arg{{Slot: 0, Cap: reply}}, reply, tag)
		})
	})
}

// TestAuditNamesQueuedDelivery: a delivery queued behind a window its
// provider never reopens is one it is never sent, and the audit names
// the Controller holding it.
func TestAuditNamesQueuedDelivery(t *testing.T) {
	why := "a provider that holds its one credit: the second invocation waits for ever at its Controller"
	runLeaving(t, "controller 1 delivery queue 1", why, testbed.Spec{Nodes: 1, Ctrl: core.Config{Window: 1}}, func(tk *sim.Task, cl *core.Cluster) {
		srv, cli := proc.Attach(cl, 0, "srv", 0), proc.Attach(cl, 0, "cli", 0)
		root, err := srv.RequestCreate(tk, 1, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		req, err := proc.GrantCap(srv, root, cli)
		if err != nil {
			t.Error(err)
			return
		}
		srv.Handle(func(*proc.Delivery) {}) // never finishes one
		for i := 0; i < 2; i++ {
			if err := cli.Invoke(tk, req, nil, nil); err != nil {
				t.Error(err)
			}
		}
	})
}

// TestCallTimeoutAwaitsInvocationCompletion: a Call whose deadline passes
// while its invocation is parked at the caller's Controller still owes
// that invocation a completion; the completion, which comes after the
// deadline, is discarded, and the run ends with nothing unanswered.
func TestCallTimeoutAwaitsInvocationCompletion(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		c := newCallPair(t, tk, cl, 1)
		held := sim.NewFuture[*proc.Delivery]()
		cl.K.Spawn("answer-once", func(st *sim.Task) {
			d, _ := c.srv.Receive(st)
			rep, _ := d.Cap(0)
			if err := c.srv.Invoke(st, rep, []wire.ImmArg{proc.U64Arg(0, d.U64(0)+1)}, nil); err != nil {
				t.Error(err)
			}
			d.Done()
			d, _ = c.srv.Receive(st)
			held.Set(d) // never answered
		})
		if !c.call(t, tk, 1) { // the reply Request exists: the next call posts its invocation at once
			return
		}
		const deadline = 200 * sim.Time(1000)
		start, late := tk.Now(), 0
		cl.Net.SetTrace(func(ev fabric.TraceEvent) {
			if ev.Type == wire.TCompletion && ev.To == c.cli.Endpoint() && ev.At > start+deadline {
				late++
			}
		})
		watched := sim.NewFuture[int]()
		cl.K.Spawn("watch", func(st *sim.Task) {
			st.Sleep(deadline + 1)
			watched.Set(c.cli.Pending())
		})
		if _, err := c.cli.CallTimeout(tk, c.creq, nil, nil, 0, deadline); !errors.Is(err, proc.ErrCallTimeout) {
			t.Errorf("unanswered call: %v, want ErrCallTimeout", err)
		}
		if n, _ := watched.Wait(tk); n != 2 {
			t.Errorf("just after the deadline %d syscalls pending, want 2: the invocation and the reply Request's cap_revoke", n)
		}
		if late < 2 {
			t.Errorf("%d completions reached the caller after the deadline, want the invocation's and the cap_revoke's", late)
		}
		if d, err := held.Wait(tk); err == nil && d != nil {
			d.Done()
		}
	})
}
