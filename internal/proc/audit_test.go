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
