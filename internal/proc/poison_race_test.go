//go:build race

package proc

import (
	"strings"
	"testing"

	"fractos/internal/core"
	"fractos/internal/fabric"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// TestLateReplyFindsReleasedCallOp is the negative test of the race
// build's call-record quarantine, which has no knob and is therefore
// active in every test `make race` runs. A reply routed to a call that
// is over — its reply Request went back to the set with its tag still
// registered — would, in a normal build, step whichever Call had reused
// the record. Here the next Call gets a record of its own, and the stale
// reply trips the assert.
func TestLateReplyFindsReleasedCallOp(t *testing.T) {
	k := sim.New(1)
	net := fabric.New(k, fabric.DefaultProfile())
	loc := fabric.Location{Node: 0}
	p := AttachTo(k, net, core.New(k, net, 1, core.Config{Loc: loc}), 1, "p", loc, 0)
	stale := p.getCallOp()
	p.putCallOp(stale)
	next := p.getCallOp()
	if next == stale {
		t.Fatal("a released call record was recycled under the race detector")
	}
	next.state = callWaiting // a call that would have taken the reply for its own
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "a reply for a call") {
			t.Errorf("a reply delivered to a released record: recovered %q, want the assert", msg)
		}
		if next.dv != nil {
			t.Error("the stale reply stepped the next call")
		}
	}()
	stale.delivered(&Delivery{p: p})
}

// poisoned reports whether d is what the race build leaves of a
// descriptor libfractos took back.
func poisoned(d *Delivery) bool {
	return d != nil && d.U64(0) == 0xDBDBDBDBDBDBDBDB && d.p == nil && d.Caps == nil
}

// echo answers d with its own imm[0:8).
func echo(t *testing.T, d *Delivery) {
	if err := d.Reply(0, []wire.ImmArg{U64Arg(0, d.U64(0))}, nil); err != nil {
		t.Error(err)
	}
}

// serveEcho serves echoCalls' Request with Serve, running h on each
// delivery before it is answered.
func serveEcho(t *testing.T, h func(*sim.Task, *Delivery)) func(*Process) {
	return func(srv *Process) {
		srv.Serve("srv", 1, func(st *sim.Task, d *Delivery) {
			h(st, d)
			echo(t, d)
		})
	}
}

// echoCalls serves an echo Request at a Process on node 1 through serve
// and makes two Calls of it from node 0, imm[0:8) = 7 then 8, handing
// the first reply to keep before the second Call starts. With with, the
// first is a CallWith over a reply Request the caller holds.
func echoCalls(t *testing.T, serve func(srv *Process), keep func(*Delivery), with bool) {
	cl := core.NewCluster(core.ClusterConfig{Nodes: 2})
	srv, cli := Attach(cl, 1, "srv", 0), Attach(cl, 0, "cli", 0)
	cl.K.Spawn("caller", func(tk *sim.Task) {
		root, err := srv.RequestCreate(tk, 1, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		serve(srv)
		req, err := GrantCap(srv, root, cli)
		if err != nil {
			t.Error(err)
			return
		}
		reply, tag, err := cli.ReplyRequest(tk)
		if err != nil {
			t.Error(err)
			return
		}
		for v := uint64(7); v <= 8; v++ {
			imms := []wire.ImmArg{U64Arg(0, v)}
			var d *Delivery
			if v == 7 && with {
				d, err = cli.CallWith(tk, req, imms, []Arg{{Slot: 0, Cap: reply}}, reply, tag)
			} else {
				d, err = cli.Call(tk, req, imms, nil, 0)
			}
			if err != nil || d.U64(0) != v {
				t.Errorf("call %d: reply %v, err %v", v, d, err)
				return
			}
			if v == 7 {
				keep(d)
			}
		}
	})
	cl.K.Run()
	cl.K.Shutdown()
}

// TestKeptDeliveryReadsPoison is the negative test of the race build's
// descriptor poisoning, which, like the call-record quarantine, is active
// in every test `make race` runs: a handler that keeps its delivery past
// its return reads 0xDB and finds no capability, instead of the next
// delivery's arguments.
func TestKeptDeliveryReadsPoison(t *testing.T) {
	var kept *Delivery
	echoCalls(t, serveEcho(t, func(_ *sim.Task, d *Delivery) {
		if kept == nil {
			kept = d
		}
	}), func(*Delivery) {}, false)
	if !poisoned(kept) {
		t.Errorf("a delivery kept past its handler reads %+v, want poison", kept)
	}
}

// TestFinishedDeliveryReadsPoison: a kernel-context handler (Handle) that
// keeps its delivery past Finish reads poison too.
func TestFinishedDeliveryReadsPoison(t *testing.T) {
	var kept *Delivery
	echoCalls(t, func(srv *Process) {
		srv.Handle(func(d *Delivery) {
			if kept == nil {
				kept = d
			}
			echo(t, d)
			d.Finish()
		})
	}, func(*Delivery) {}, false)
	if !poisoned(kept) {
		t.Errorf("a delivery kept past Finish reads %+v, want poison", kept)
	}
}

// TestSpentReplyReadsPoison: a caller that keeps a Call's or a
// CallWith's reply across a block — here, the next Call — reads poison
// too.
func TestSpentReplyReadsPoison(t *testing.T) {
	for _, with := range []bool{false, true} {
		var kept *Delivery
		echoCalls(t, serveEcho(t, func(*sim.Task, *Delivery) {}), func(d *Delivery) { kept = d }, with)
		if !poisoned(kept) {
			t.Errorf("a reply kept past the next Call (the first a CallWith: %v) reads %+v, want poison", with, kept)
		}
	}
}
