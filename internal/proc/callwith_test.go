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

// withRig is a CallWith's cast: cli on node 0 calls srv's Request (req,
// on node 1) over its reply Request, which a third Process, holder on
// node 2, was granted too — the copy a continuation preset elsewhere
// would be.
type withRig struct {
	cli, srv, holder *proc.Process
	req              proc.Cap // srv's Request, the client's handle
	reply            proc.Cap // the client's reply Request
	tag              uint64
	held             proc.Cap // holder's grant of reply
	delivered        int      // invocations of the client no call took
}

func newWithRig(t *testing.T, tk *sim.Task, cl *core.Cluster, preset []wire.ImmArg) *withRig {
	t.Helper()
	r := &withRig{srv: proc.Attach(cl, 1, "srv", 0), cli: proc.Attach(cl, 0, "cli", 0), holder: proc.Attach(cl, 2, "holder", 0)}
	root, err := r.srv.RequestCreate(tk, 1, preset, nil)
	if err == nil {
		r.req, err = proc.GrantCap(r.srv, root, r.cli)
	}
	if err == nil {
		r.reply, r.tag, err = r.cli.ReplyRequest(tk)
	}
	if err == nil {
		r.held, err = proc.GrantCap(r.cli, r.reply, r.holder)
	}
	if err != nil {
		t.Error(err)
	}
	r.cli.Handle(func(d *proc.Delivery) {
		r.delivered++
		d.Finish()
	})
	return r
}

// call is one CallWith of the rig's Request, the reply Request passed in
// slot 0.
func (r *withRig) call(tk *sim.Task, v uint64) (*proc.Delivery, error) {
	return r.cli.CallWith(tk, r.req, []wire.ImmArg{proc.U64Arg(8, v)}, []proc.Arg{{Slot: 0, Cap: r.reply}}, r.reply, r.tag)
}

// lateReply invokes the reply Request through the holder's grant, as a
// provider that answers after the call is over would, and checks that
// the client's Controller refuses it (counted in InvokesRefused) and
// that nothing reaches the client.
func (r *withRig) lateReply(t *testing.T, tk *sim.Task, cl *core.Cluster) {
	t.Helper()
	before := cl.CtrlFor(0).Metrics().InvokesRefused
	if err := r.holder.Invoke(tk, r.held, nil, nil); !wire.IsStatus(err, wire.StatusRevoked) {
		t.Errorf("a reply with no call armed: %v, want StatusRevoked", err)
	}
	tk.Sleep(us(50))
	if got := cl.CtrlFor(0).Metrics().InvokesRefused - before; got != 1 {
		t.Errorf("the caller's Controller counted %d refused invocations, want 1", got)
	}
	if r.delivered != 0 {
		t.Errorf("%d invocations of the reply Request reached the caller's handler, want 0", r.delivered)
	}
}

// TestCallWithReplyIsTheAck: on a reliable fabric a CallWith's reply
// answers its invocation, so the owner sends the caller's Controller no
// CtrlAck for an accepted one, and the reply, credit-free, gets no
// DeliverDone. On a lossy fabric the owner acks every invocation, so its
// retransmission stops; the reply still takes no credit.
func TestCallWithReplyIsTheAck(t *testing.T) {
	const calls = 3
	for _, lossy := range []bool{false, true} {
		run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
			if lossy {
				cl.Net.InstallFaults(fabric.Faults{})
			}
			r := newWithRig(t, tk, cl, nil)
			r.srv.Handle(func(d *proc.Delivery) {
				_ = d.Reply(0, []wire.ImmArg{proc.U64Arg(0, d.U64(8)+1)}, nil)
				d.Finish()
			})
			acks, dones := 0, 0
			cl.Net.SetTrace(func(e fabric.TraceEvent) {
				switch {
				case e.Type == wire.TCtrlAck && e.To == cl.CtrlFor(0).EndpointID():
					acks++
				case e.Type == wire.TDeliverDone && e.From == r.cli.Endpoint():
					dones++
				}
			})
			for i := uint64(0); i < calls; i++ {
				if d, err := r.call(tk, i); err != nil || d.U64(0) != i+1 {
					t.Errorf("lossy %v: call %d: %v", lossy, i, err)
					return
				}
			}
			cl.Net.SetTrace(nil)
			wantAcks := 0
			if lossy {
				wantAcks = calls
			}
			if acks != wantAcks || dones != 0 {
				t.Errorf("lossy %v: %d calls sent %d CtrlAcks and %d reply DeliverDones, want %d and 0", lossy, calls, acks, dones, wantAcks)
			}
		})
	}
}

// TestCallWithRefusedDisarms: an invocation its owner refuses returns
// the refusal as soon as it comes back, and takes the arming of the
// declared reply Request back, so a reply that comes later — through a
// copy of the continuation another Process holds — is refused at the
// caller's Controller and never delivered.
func TestCallWithRefusedDisarms(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		// srv's Request presets imm[8:16), which the call writes again.
		r := newWithRig(t, tk, cl, []wire.ImmArg{proc.U64Arg(8, 1)})
		start := tk.Now()
		if dv, err := r.call(tk, 2); dv != nil || !wire.IsStatus(err, wire.StatusImmutable) {
			t.Errorf("a refused CallWith: %v, %v; want StatusImmutable", dv, err)
		}
		if took := tk.Now() - start; took > us(20) {
			t.Errorf("the refused CallWith returned %v after it started, want one round trip", took)
		}
		r.lateReply(t, tk, cl)
	})
}

// TestCallWithAbortedAtPeerReboot: the provider's Controller crashes
// after accepting a CallWith's invocation and reboots. The epoch
// announcement aborts the invocation parked on the reply Request and
// disarms it: the call fails with StatusAborted, and a reply that comes
// later is refused, never delivered.
func TestCallWithAbortedAtPeerReboot(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		r := newWithRig(t, tk, cl, nil)
		r.srv.Handle(func(d *proc.Delivery) {
			d.Finish() // accepted, never answered
			cl.K.Spawn("crash", func(st *sim.Task) {
				cl.CtrlFor(1).Crash()
				st.Sleep(us(50))
				cl.CtrlFor(1).Reboot()
			})
		})
		start := tk.Now()
		if dv, err := r.call(tk, 1); dv != nil || !wire.IsStatus(err, wire.StatusAborted) {
			t.Errorf("a CallWith whose provider's Controller rebooted: %v, %v; want StatusAborted", dv, err)
		}
		if took := tk.Now() - start; took > us(100) {
			t.Errorf("the call failed %v after it started, want it at the epoch announcement", took)
		}
		r.lateReply(t, tk, cl)
	})
}

// TestCallWithAbortedAtDeadlineDisarms: a CallWith's invocation is
// delivered and its acknowledgement is lost for longer than
// core.RPCBudget, so the call fails with StatusAborted at its deadline.
// The abort takes the arming of the reply Request back: a reply that
// comes later is refused, never delivered.
func TestCallWithAbortedAtDeadlineDisarms(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		cl.Net.InstallFaults(fabric.Faults{})
		r := newWithRig(t, tk, cl, nil)
		r.srv.Handle(func(d *proc.Delivery) { d.Finish() }) // accepted, never answered
		cl.Net.SetTrace(func(e fabric.TraceEvent) {
			if e.Type == wire.TDeliver && e.To == r.srv.Endpoint() {
				cl.Net.PartitionNodes([]int{1}) // the acknowledgement will not cross
			}
		})
		start := tk.Now()
		if dv, err := r.call(tk, 1); dv != nil || !wire.IsStatus(err, wire.StatusAborted) {
			t.Errorf("a CallWith whose acknowledgement was lost: %v, %v; want StatusAborted", dv, err)
		}
		if took := tk.Now() - start; took < core.RPCBudget {
			t.Errorf("the call failed %v after it started, want it at its deadline, %v", took, core.RPCBudget)
		}
		cl.Net.SetTrace(nil)
		cl.Net.HealPartitions()
		r.lateReply(t, tk, cl)
	})
}

// TestCallWithCallsAgainAfterLateReply: the reply Request a refused
// call disarmed is armed again by the next CallWith over it, and that
// call gets its own reply.
func TestCallWithCallsAgainAfterLateReply(t *testing.T) {
	run(t, testbed.Spec{Nodes: 3}, func(tk *sim.Task, cl *core.Cluster) {
		r := newWithRig(t, tk, cl, nil)
		r.srv.Handle(func(d *proc.Delivery) {
			_ = d.Reply(0, []wire.ImmArg{proc.U64Arg(0, d.U64(8)+1)}, nil)
			d.Finish()
		})
		r.lateReply(t, tk, cl)
		if d, err := r.call(tk, 7); err != nil || d.U64(0) != 8 {
			t.Errorf("a CallWith after a refused late reply: %v", err)
		}
	})
}

// TestCallWithRefusesWhatIsNoReplyRequest: a CallWith over a Request
// that is no reply Request is refused before anything is posted when its
// tag says so, and by the caller's Controller (StatusKind) when only the
// tag lies; a reply Request the caller dropped, or another Process's
// handle, is refused too.
func TestCallWithRefusesWhatIsNoReplyRequest(t *testing.T) {
	run(t, cpuCluster(), func(tk *sim.Task, cl *core.Cluster) {
		r := newWithRig(t, tk, cl, nil)
		tag := r.cli.NewTag()
		plain, err := r.cli.RequestCreate(tk, tag, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		invokes, at := cl.CtrlFor(0).Metrics().Invokes, tk.Now()
		if _, err := r.cli.CallWith(tk, r.req, nil, nil, plain, tag); !wire.IsStatus(err, wire.StatusKind) || tk.Now() != at {
			t.Errorf("CallWith over a plain Request: %v after %v, want StatusKind at once", err, tk.Now()-at)
		}
		if got := cl.CtrlFor(0).Metrics().Invokes; got != invokes {
			t.Errorf("a CallWith refused before anything is posted posted %d invocations", got-invokes)
		}
		if _, err := r.cli.CallWith(tk, r.req, nil, nil, plain, wire.ReplyTag|tag); !wire.IsStatus(err, wire.StatusKind) {
			t.Errorf("CallWith over a plain Request under a reply tag: %v, want StatusKind", err)
		}
		if _, err := r.cli.CallWith(tk, r.req, nil, nil, r.held, r.tag); !errors.Is(err, proc.ErrForeignCap) {
			t.Errorf("CallWith over another Process's handle: %v, want ErrForeignCap", err)
		}
		if err := r.cli.Drop(tk, r.reply); err != nil {
			t.Fatal(err)
		}
		if _, err := r.call(tk, 1); !wire.IsStatus(err, wire.StatusNoCap) {
			t.Errorf("CallWith over a dropped reply Request: %v, want StatusNoCap", err)
		}
	})
}
