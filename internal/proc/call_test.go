package proc_test

// The error legs of Call's state machine (call.go): what the call
// leaves behind when its invocation is refused, and that a call whose
// channel to the Controller is severed part-way returns instead of
// waiting for a completion nobody will send.

import (
	"errors"
	"testing"

	"fractos/internal/core"
	"fractos/internal/fabric"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// TestCallRefusedInvokeDropsReplyRequest: the Request is revoked at its
// owner while the call is creating its reply Request, so the invocation
// comes back StatusRevoked. The call must return that status and take
// the reply Request it had created back out of the caller's capability
// space: nothing of the call is left there.
func TestCallRefusedInvokeDropsReplyRequest(t *testing.T) {
	run(t, core.ClusterConfig{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		srv := proc.Attach(cl, 1, "srv", 0)
		cli := proc.Attach(cl, 0, "cli", 0)
		req, err := srv.RequestCreate(tk, 1, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		creq, err := proc.GrantCap(srv, req, cli)
		if err != nil {
			t.Error(err)
			return
		}
		// Controller 0 manages cli alone, and cli holds creq alone: the
		// footprint of its capability spaces is that one entry's.
		ctrl := cl.CtrlFor(0)
		oneEntry := ctrl.Footprint().CapSpaceBytes
		// Late enough that the invocation has left for the owner before
		// the revocation's cleanup broadcast purges creq here, early
		// enough that the owner has revoked before it arrives.
		cl.K.Spawn("revoker", func(rt *sim.Task) {
			rt.Sleep(us(2.5))
			if err := srv.Revoke(rt, req); err != nil {
				t.Error(err)
			}
		})
		dv, err := cli.Call(tk, creq, nil, nil, 0)
		if dv != nil || !wire.IsStatus(err, wire.StatusRevoked) {
			t.Errorf("call of a Request revoked under it: %v, %v; want StatusRevoked", dv, err)
		}
		// The pre-call entries, less creq if the cleanup has purged it.
		want := oneEntry
		if _, still := ctrl.EntryOf(cli.ID(), creq.ID()); !still {
			want = 0
		}
		if got := ctrl.Footprint().CapSpaceBytes; got != want {
			t.Errorf("capability space after the refused call: %d bytes, want %d (one entry is %d): the reply Request was not dropped",
				got, want, oneEntry)
		}
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

// TestCallSeveredBetweenSyscalls: the channel goes between the
// request_create and the request_invoke. The invocation is posted from
// the receive path, not by the caller — so it is the call's record that
// must notice, and wake the caller with ErrDisconnected.
func TestCallSeveredBetweenSyscalls(t *testing.T) {
	run(t, core.ClusterConfig{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		srv := proc.Attach(cl, 1, "srv", 0)
		cli := proc.Attach(cl, 0, "cli", 0)
		req, _ := srv.RequestCreate(tk, 1, nil, nil)
		creq, err := proc.GrantCap(srv, req, cli)
		if err != nil {
			t.Error(err)
			return
		}
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

// TestCallSeveredAfterReply: the channel goes as the reply arrives, so
// neither its acknowledgement nor the cap_drop of the reply Request can
// be posted. That cleanup is lost with the channel; the reply is not.
func TestCallSeveredAfterReply(t *testing.T) {
	run(t, core.ClusterConfig{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		srv := proc.Attach(cl, 1, "srv", 0)
		cli := proc.Attach(cl, 0, "cli", 0)
		req, _ := srv.RequestCreate(tk, 1, nil, nil)
		creq, err := proc.GrantCap(srv, req, cli)
		if err != nil {
			t.Error(err)
			return
		}
		cl.K.Spawn("echo", func(st *sim.Task) {
			for {
				d, ok := srv.Receive(st)
				if !ok {
					return
				}
				if rep, ok := d.Cap(0); ok {
					_ = srv.Invoke(st, rep, []wire.ImmArg{proc.U64Arg(0, d.U64(0)+1)}, nil)
				}
				d.Done()
			}
		})
		severOn(cl, cli, wire.TDeliver)
		dv, err := cli.Call(tk, creq, []wire.ImmArg{proc.U64Arg(0, 41)}, nil, 0)
		if err != nil || dv == nil || dv.U64(0) != 42 {
			t.Errorf("call severed as its reply arrived: %v, %v; want the reply", dv, err)
		}
		if err := cli.Null(tk); !errors.Is(err, proc.ErrDisconnected) {
			t.Errorf("syscall after the channel went: %v, want ErrDisconnected", err)
		}
	})
}
