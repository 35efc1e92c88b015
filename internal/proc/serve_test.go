package proc_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"fractos/internal/core"
	"fractos/internal/fabric"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/wire"
)

// serveRig is what TestServe observes of one served Process: every
// delivery in service order, how many were in service at once, and the
// acknowledgements and invocations the server put on the fabric.
type serveRig struct {
	ids     []uint64    // imm[0:8) of each delivery
	tasks   []*sim.Task // the task that served it
	busy    int
	peak    int
	acks    int // DeliverDone frames the server sent
	invokes int // request_invoke frames the server sent
	replies []uint64
	errs    []error
}

// TestServe drives Process.Serve from callers on another node. A row's
// callers each attach a Process and make calls one after another: with
// reply, a Call whose reply Request rides in slot 0; without, an Invoke
// that carries no continuation and returns once the invocation is
// accepted, so deliveries queue up at the server. imm[0:8) of call i of
// caller c is ids(c, i), or c*calls+i. Every row ends with no task of
// Serve's left, and a row with events holds the kernel events of its
// whole run to that count.
func TestServe(t *testing.T) {
	const work = 50 * sim.Time(1000)
	sleep := func(st *sim.Task, d *proc.Delivery, r *serveRig) { st.Sleep(work) }
	echo := func(_ *sim.Task, d *proc.Delivery, r *serveRig) {
		r.errs = append(r.errs, d.Reply(0, []wire.ImmArg{proc.U64Arg(0, d.U64(0))}, nil))
	}
	for _, tc := range []struct {
		name           string
		window, width  int
		callers, calls int
		reply          bool
		events         uint64
		ids            func(c, i int) uint64
		h              func(*sim.Task, *proc.Delivery, *serveRig)
		check          func(*serveRig) error
	}{{
		name: "width 1 serves in arrival order in one task", width: 1, callers: 1, calls: 8, h: sleep, events: 106,
		check: func(r *serveRig) error {
			for i, id := range r.ids {
				if id != uint64(i) || r.tasks[i] != r.tasks[0] {
					return fmt.Errorf("delivery %d: id %d in task %p, want id %d in task %p", i, id, r.tasks[i], i, r.tasks[0])
				}
			}
			return peak(r, 1)
		},
	}, {
		name: "width 3 bounds deliveries in service", width: 3, callers: 8, calls: 1, h: sleep, events: 115,
		check: func(r *serveRig) error { return peak(r, 3) },
	}, {
		name: "width 0 is bounded by the congestion window", window: 4, width: 0, callers: 8, calls: 1, h: sleep, events: 120,
		check: func(r *serveRig) error { return peak(r, 4) },
	}, {
		name: "window 1, handler returns", window: 1, width: 1, callers: 1, calls: 3, reply: true, h: echo,
		check: func(r *serveRig) error { return ackedOnce(r, 3) },
	}, {
		name: "window 1, handler calls Done", window: 1, width: 1, callers: 1, calls: 3, reply: true,
		h:     func(st *sim.Task, d *proc.Delivery, r *serveRig) { echo(st, d, r); d.Done() },
		check: func(r *serveRig) error { return ackedOnce(r, 3) },
	}, {
		name: "window 1, handler calls Release", window: 1, width: 0, callers: 1, calls: 3, reply: true,
		h:     func(st *sim.Task, d *proc.Delivery, r *serveRig) { echo(st, d, r); d.Release() },
		check: func(r *serveRig) error { return ackedOnce(r, 3) },
	}, {
		name: "Reply on an absent slot sends nothing", width: 1, callers: 1, calls: 2,
		h: func(_ *sim.Task, d *proc.Delivery, r *serveRig) {
			r.errs = append(r.errs, d.Reply(0, nil, nil), d.ReplyStatus(0, 9))
		},
		check: func(r *serveRig) error {
			if r.invokes != 0 || fmt.Sprint(r.errs) != "[<nil> <nil> <nil> <nil>]" {
				return fmt.Errorf("%d invocations sent, errors %v; want none, nil", r.invokes, r.errs)
			}
			return nil
		},
	}, {
		name: "Upstream passes on a non-zero status only", width: 1, callers: 1, calls: 2, reply: true,
		ids: func(c, i int) uint64 { return uint64(7 * i) },
		h: func(_ *sim.Task, d *proc.Delivery, r *serveRig) {
			if !d.Upstream(0) {
				d.ReplyStatus(0, 100)
			}
		},
		check: func(r *serveRig) error {
			if r.invokes != 2 || fmt.Sprint(r.replies) != "[100 7]" {
				return fmt.Errorf("%d invocations, replies %v; want 2, [100 7]", r.invokes, r.replies)
			}
			return nil
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testbed.Spec{Nodes: 2}
			cfg.Ctrl.Window = tc.window
			r := &serveRig{}
			e0 := sim.TotalEvents()
			run(t, cfg, func(tk *sim.Task, cl *core.Cluster) {
				srv := proc.Attach(cl, 1, "srv", 0)
				cl.Net.SetTrace(func(e fabric.TraceEvent) {
					if e.From != srv.Endpoint() {
						return
					}
					switch e.Type {
					case wire.TDeliverDone:
						r.acks++
					case wire.TReqInvoke:
						r.invokes++
					}
				})
				req, err := srv.RequestCreate(tk, 1, nil, nil)
				if err != nil {
					t.Error(err)
					return
				}
				var served, called sim.WaitGroup
				served.Add(tc.callers * tc.calls)
				called.Add(tc.callers)
				live := cl.K.Live()
				srv.Serve("srv", tc.width, func(st *sim.Task, d *proc.Delivery) {
					r.ids = append(r.ids, d.U64(0))
					r.tasks = append(r.tasks, st)
					r.busy++
					r.peak = max(r.peak, r.busy)
					tc.h(st, d, r)
					r.busy--
					served.Done()
				})
				for c := 0; c < tc.callers; c++ {
					cli := proc.Attach(cl, 0, fmt.Sprintf("cli%d", c), 0)
					creq, err := proc.GrantCap(srv, req, cli)
					if err != nil {
						t.Error(err)
						return
					}
					cl.K.Spawn("caller", func(ct *sim.Task) {
						defer called.Done()
						for i := 0; i < tc.calls; i++ {
							id := uint64(c*tc.calls + i)
							if tc.ids != nil {
								id = tc.ids(c, i)
							}
							imms := []wire.ImmArg{proc.U64Arg(0, id)}
							if !tc.reply {
								if err := cli.Invoke(ct, creq, imms, nil); err != nil {
									t.Error(err)
								}
								continue
							}
							d, err := cli.Call(ct, creq, imms, nil, 0)
							if err != nil {
								t.Error(err)
								return
							}
							r.replies = append(r.replies, d.U64(0))
						}
					})
				}
				called.Wait(tk)
				served.Wait(tk)
				tk.Sleep(work) // the last acknowledgement reaches the fabric
				if n := cl.K.Live(); n != live {
					t.Errorf("%d tasks live at quiescence, %d before Serve", n, live)
				}
			})
			if got := sim.TotalEvents() - e0; tc.events != 0 && got != tc.events {
				t.Errorf("%d kernel events, want %d", got, tc.events)
			}
			if len(r.ids) != tc.callers*tc.calls {
				t.Fatalf("served %d deliveries, want %d", len(r.ids), tc.callers*tc.calls)
			}
			if err := tc.check(r); err != nil {
				t.Error(err)
			}
		})
	}
}

func peak(r *serveRig, want int) error {
	if r.peak != want {
		return fmt.Errorf("%d deliveries in service at once, want %d", r.peak, want)
	}
	return nil
}

// ackedOnce checks that every delivery was answered and acknowledged
// exactly once.
func ackedOnce(r *serveRig, n int) error {
	if r.acks != n || len(r.replies) != n {
		return fmt.Errorf("%d acknowledgements and %d replies for %d deliveries", r.acks, len(r.replies), n)
	}
	return nil
}

// TestReplyThenRelease pins the order Reply relies on. A handler answers
// and hands its delivery back at once: the reply's request_invoke and the
// DeliverDone that drops its continuation leave in the same instant,
// request_invoke first, and the Process→Controller queue is FIFO, so the
// invocation is validated while the entry exists. The caller, on the
// provider's node or another, gets every answer; afterwards the
// provider's Controller holds what it held before the calls, and no
// completion is outstanding.
func TestReplyThenRelease(t *testing.T) {
	for _, srvNode := range []int{0, 1} {
		run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
			c := newCallPair(t, tk, cl, srvNode)
			c.srv.Serve("srv", 1, func(_ *sim.Task, d *proc.Delivery) {
				if err := d.Reply(0, []wire.ImmArg{proc.U64Arg(0, d.U64(0)+1)}, nil); err != nil {
					t.Error(err)
				}
				d.Release()
			})
			if !c.call(t, tk, 0) { // creates the caller's reply Request
				return
			}
			var sent []wire.Type
			cl.Net.SetTrace(func(e fabric.TraceEvent) {
				if e.From == c.srv.Endpoint() {
					sent = append(sent, e.Type)
				}
			})
			tk.Sleep(us(100))
			before := cl.CtrlFor(srvNode).Footprint().CapSpaceBytes
			for v := uint64(1); v <= 3; v++ {
				if !c.call(t, tk, v) {
					return
				}
			}
			tk.Sleep(us(100))
			if got := cl.CtrlFor(srvNode).Footprint().CapSpaceBytes; got != before {
				t.Errorf("provider on node %d: its Controller holds %d capability bytes after three released deliveries, %d before", srvNode, got, before)
			}
			pair := []wire.Type{wire.TReqInvoke, wire.TDeliverDone}
			if want := slices.Concat(pair, pair, pair); !slices.Equal(sent, want) {
				t.Errorf("provider on node %d sent message types %v, want %v: each reply ahead of its Release", srvNode, sent, want)
			}
			refused := cl.CtrlFor(0).Metrics().InvokesRefused + cl.CtrlFor(1).Metrics().InvokesRefused
			if c.srv.Pending() != 0 || refused != 0 {
				t.Errorf("provider on node %d: %d completions outstanding, %d invocations refused; want none", srvNode, c.srv.Pending(), refused)
			}
		})
	}
}

// sent is a fabric trace reduced to who sent what to whom.
type sent struct {
	from, to fabric.EndpointID
	ty       wire.Type
}

// traceSends records every message the fabric carries from now on.
func traceSends(cl *core.Cluster) *[]sent {
	var log []sent
	cl.Net.SetTrace(func(e fabric.TraceEvent) {
		if !e.RDMA {
			log = append(log, sent{e.From, e.To, e.Type})
		}
	})
	return &log
}

// after is the part of log from the first message m on, without the
// DeliverDones that hand deliveries back.
func after(log []sent, m sent) []sent {
	i := slices.Index(log, m)
	if i < 0 {
		return nil
	}
	return slices.DeleteFunc(slices.Clone(log[i:]), func(s sent) bool { return s.ty == wire.TDeliverDone })
}

// TestReplyIsOneWay: on a reliable fabric nobody waits for a reply's
// outcome, so a cross-node Reply is three sends — the provider's
// request_invoke, its Controller's CtrlInvoke to the caller's, the
// Deliver to the caller — and nothing answers them: the owner acks every
// CtrlInvoke under a token but 0, and the provider's Controller
// completes every syscall under a token but 0. The reply capability the
// answer went through is dropped as it is forwarded, so the provider's
// Controller holds what it held before the call. The caller's own
// invocation completes with the reply, just before its Deliver; nothing
// else is on the wire meanwhile.
func TestReplyIsOneWay(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		c := newCallPair(t, tk, cl, 1)
		c.srv.Serve("srv", 1, func(st *sim.Task, d *proc.Delivery) {
			st.Sleep(us(20))
			if err := d.Reply(0, []wire.ImmArg{proc.U64Arg(0, d.U64(0)+1)}, nil); err != nil {
				t.Error(err)
			}
		})
		if !c.call(t, tk, 0) { // creates the caller's reply Request
			return
		}
		tk.Sleep(us(100))
		before := cl.CtrlFor(1).Footprint().CapSpaceBytes
		log := traceSends(cl)
		if !c.call(t, tk, 1) {
			return
		}
		tk.Sleep(us(100))
		c0, c1 := cl.CtrlFor(0).EndpointID(), cl.CtrlFor(1).EndpointID()
		want := []sent{{c.srv.Endpoint(), c1, wire.TReqInvoke}, {c1, c0, wire.TCtrlInvoke},
			{c0, c.cli.Endpoint(), wire.TCompletion}, {c0, c.cli.Endpoint(), wire.TDeliver}}
		if got := after(*log, want[0]); !slices.Equal(got, want) {
			t.Errorf("the reply's messages %v, want %v", got, want)
		}
		if got := cl.CtrlFor(1).Footprint().CapSpaceBytes; got != before || c.srv.Pending() != 0 {
			t.Errorf("the provider's Controller holds %d capability bytes, %d before the call; %d completions outstanding", got, before, c.srv.Pending())
		}
	})
}

// TestCallReplyIsTheAck: on a reliable fabric the owner of a called
// Request does not acknowledge an invocation it accepts that passes the
// caller's reply Request — the reply answers it. A warm cross-node Call
// answered by Reply is two cross-node frames, the invocation and the
// reply; answered by a blocking Invoke, whose invoker waits for its
// owner's CtrlAck, three. Either way the caller's Completion goes out in
// the reply's instant, just ahead of its Deliver.
func TestCallReplyIsTheAck(t *testing.T) {
	for _, tc := range []struct {
		name   string
		reply  bool
		frames []wire.Type
	}{
		{"Reply", true, []wire.Type{wire.TCtrlInvoke, wire.TCtrlInvoke}},
		{"Invoke", false, []wire.Type{wire.TCtrlInvoke, wire.TCtrlInvoke, wire.TCtrlAck}},
	} {
		run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
			c := newCallPair(t, tk, cl, 1)
			if tc.reply {
				c.srv.Serve("srv", 1, func(_ *sim.Task, d *proc.Delivery) {
					_ = d.Reply(0, []wire.ImmArg{proc.U64Arg(0, d.U64(0)+1)}, nil)
				})
			} else {
				c.echo(false, nil)
			}
			if !c.call(t, tk, 0) { // creates the caller's reply Request
				return
			}
			tk.Sleep(us(100))
			c0, c1, cli := cl.CtrlFor(0).EndpointID(), cl.CtrlFor(1).EndpointID(), c.cli.Endpoint()
			var frames []wire.Type
			var completed, delivered []sim.Time
			cl.Net.SetTrace(func(e fabric.TraceEvent) {
				switch {
				case e.From == c0 && e.To == c1 || e.From == c1 && e.To == c0:
					frames = append(frames, e.Type)
				case e.From == c0 && e.To == cli && e.Type == wire.TCompletion:
					completed = append(completed, e.At)
				case e.From == c0 && e.To == cli && e.Type == wire.TDeliver:
					delivered = append(delivered, e.At)
				}
			})
			if !c.call(t, tk, 1) {
				return
			}
			tk.Sleep(us(100))
			if !slices.Equal(frames, tc.frames) {
				t.Errorf("answered by %s: cross-node frames %v, want %v", tc.name, frames, tc.frames)
			}
			if len(completed) != 1 || !slices.Equal(completed, delivered) {
				t.Errorf("answered by %s: the caller's Completions at %v, its Deliveries at %v; want one each, in one instant",
					tc.name, completed, delivered)
			}
		})
	}
}

// TestContinuationPassedOnKeepsItsAck: a cross-node Call's continuation
// comes back to the caller's node, delegated to another Process there,
// which passes it on twice to a provider on the caller's peer before the
// reply. Only the Call armed the reply Request; the pass-ons carry it
// Relayed, so the provider's owner acks each of them, and the Call's own
// invocation is still answered by the reply. The reply is the caller's;
// the second answer bounces off the spent continuation, and no call is
// left pending on either Controller.
func TestContinuationPassedOnKeepsItsAck(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		cli, back := proc.Attach(cl, 0, "cli", 0), proc.Attach(cl, 0, "back", 0)
		mid, srv := proc.Attach(cl, 1, "mid", 0), proc.Attach(cl, 1, "srv", 0)
		var toSrv, toBack, toMid proc.Cap
		for i, g := range []struct {
			from, to *proc.Process
			dst      *proc.Cap
		}{{srv, back, &toSrv}, {back, mid, &toBack}, {mid, cli, &toMid}} {
			req, err := g.from.RequestCreate(tk, uint64(i+1), nil, nil)
			if err == nil {
				*g.dst, err = proc.GrantCap(g.from, req, g.to)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
		srv.Serve("srv", 1, func(st *sim.Task, d *proc.Delivery) {
			st.Sleep(us(20))
			_ = d.Reply(0, []wire.ImmArg{proc.U64Arg(0, d.U64(0)+1)}, nil)
		})
		mid.Serve("mid", 2, func(st *sim.Task, d *proc.Delivery) {
			rep, _ := d.Cap(0)
			if err := mid.Invoke(st, toBack, []wire.ImmArg{proc.U64Arg(0, d.U64(0))}, []proc.Arg{{Slot: 0, Cap: rep}}); err != nil {
				t.Error(err)
			}
		})
		var errs [2]error
		passed := sim.NewFuture[struct{}]()
		back.Serve("back", 3, func(st *sim.Task, d *proc.Delivery) {
			rep, _ := d.Cap(0)
			fwd := []proc.Arg{{Slot: 0, Cap: rep}}
			errs[0] = back.Invoke(st, toSrv, []wire.ImmArg{proc.U64Arg(0, d.U64(0))}, fwd)
			errs[1] = back.Invoke(st, toSrv, []wire.ImmArg{proc.U64Arg(0, 0)}, fwd)
			passed.Set(struct{}{})
		})
		c0, c1 := cl.CtrlFor(0).EndpointID(), cl.CtrlFor(1).EndpointID()
		acks := 0
		cl.Net.SetTrace(func(e fabric.TraceEvent) {
			if (e.From == c0 && e.To == c1 || e.From == c1 && e.To == c0) && e.Type == wire.TCtrlAck {
				acks++
			}
		})
		dv, err := cli.CallTimeout(tk, toMid, []wire.ImmArg{proc.U64Arg(0, 41)}, nil, 0, us(1000))
		if err != nil || dv.U64(0) != 42 {
			t.Errorf("call through the continuation passed on: %v, %v; want the provider's 42", dv, err)
			return
		}
		if _, err := passed.Wait(tk); err != nil {
			t.Error(err)
		}
		tk.Sleep(us(100))
		if errs[0] != nil || errs[1] != nil {
			t.Errorf("the pass-ons: %v, then %v; want both accepted", errs[0], errs[1])
		}
		if acks != 3 {
			t.Errorf("%d cross-node CtrlAcks, want 3: the continuation's delegation back and both pass-ons, not the Call", acks)
		}
	})
}

// TestContinuationBackAtCallerIsPassedOn: the provider of a cross-node
// Call delegates the caller's continuation back to the caller itself,
// which passes it on to a second provider. Passing it arms the reply
// Request afresh; the delegation it came back in proves the Call's
// invocation was delivered, so the Call goes on to take the second
// provider's reply, and the caller's pass-on, which armed the reply
// Request, completes with that reply.
func TestContinuationBackAtCallerIsPassedOn(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		cli, srv, fin := proc.Attach(cl, 0, "cli", 0), proc.Attach(cl, 1, "srv", 0), proc.Attach(cl, 1, "fin", 0)
		var toSrv, toCb, toFin proc.Cap
		for i, g := range []struct {
			from, to *proc.Process
			dst      *proc.Cap
		}{{srv, cli, &toSrv}, {cli, srv, &toCb}, {fin, cli, &toFin}} {
			req, err := g.from.RequestCreate(tk, uint64(i+1), nil, nil)
			if err == nil {
				*g.dst, err = proc.GrantCap(g.from, req, g.to)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
		srv.Serve("srv", 1, func(st *sim.Task, d *proc.Delivery) {
			rep, _ := d.Cap(0)
			if err := srv.Invoke(st, toCb, []wire.ImmArg{proc.U64Arg(0, d.U64(0))}, []proc.Arg{{Slot: 0, Cap: rep}}); err != nil {
				t.Error(err)
			}
		})
		fin.Serve("fin", 3, func(_ *sim.Task, d *proc.Delivery) {
			_ = d.Reply(0, []wire.ImmArg{proc.U64Arg(0, d.U64(0)+1)}, nil)
		})
		var passed error
		cli.Serve("cb", 2, func(st *sim.Task, d *proc.Delivery) {
			rep, _ := d.Cap(0)
			passed = cli.Invoke(st, toFin, []wire.ImmArg{proc.U64Arg(0, d.U64(0))}, []proc.Arg{{Slot: 0, Cap: rep}})
		})
		dv, err := cli.CallTimeout(tk, toSrv, []wire.ImmArg{proc.U64Arg(0, 41)}, nil, 0, us(1000))
		if err != nil || dv.U64(0) != 42 {
			t.Errorf("call answered through its continuation passed on by the caller: %v, %v; want the second provider's 42", dv, err)
			return
		}
		tk.Sleep(us(100))
		if passed != nil {
			t.Errorf("the caller's pass-on: %v, want accepted", passed)
		}
	})
}

// TestReplyLossyKeepsItsAck: on a fabric that may lose frames the
// provider's Controller resends a reply until the owner acknowledges it,
// so the CtrlAck flows even at zero loss — and still no Completion
// reaches the provider: its syscall is under token 0.
func TestReplyLossyKeepsItsAck(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		cl.Net.InstallFaults(fabric.Faults{})
		c := newCallPair(t, tk, cl, 1)
		c.srv.Serve("srv", 1, func(_ *sim.Task, d *proc.Delivery) {
			_ = d.Reply(0, []wire.ImmArg{proc.U64Arg(0, d.U64(0)+1)}, nil)
		})
		if !c.call(t, tk, 0) {
			return
		}
		log := traceSends(cl)
		if !c.call(t, tk, 1) {
			return
		}
		tk.Sleep(us(100))
		c0, c1, srv := cl.CtrlFor(0).EndpointID(), cl.CtrlFor(1).EndpointID(), c.srv.Endpoint()
		got := after(*log, sent{srv, c1, wire.TReqInvoke})
		if !slices.Contains(got, sent{c0, c1, wire.TCtrlAck}) || slices.Contains(got, sent{c1, srv, wire.TCompletion}) {
			t.Errorf("the reply's messages %v: want the owner's CtrlAck and no Completion to the provider", got)
		}
	})
}

// TestReplyPassingOwnReplyIsAnswered: a Reply that passes a reply
// Request of the replying Process arms it, and an arming must be taken
// back if the invocation is refused — so such a Reply is answered even on
// a reliable fabric. The continuation refuses it: its preset immediate
// is write-once, and the answer writes it. The provider's own reply
// Request is then disarmed: invoked by the provider itself it delivers
// nothing (StatusRevoked), as one never passed.
func TestReplyPassingOwnReplyIsAnswered(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		c := newCallPair(t, tk, cl, 1)
		cont, err := c.cli.RequestCreate(tk, 7, []wire.ImmArg{proc.U64Arg(0, 0)}, nil)
		if err != nil {
			t.Error(err)
			return
		}
		own, err := c.srv.RequestCreate(tk, wire.ReplyTag|1, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		done, served := sim.NewFuture[error](), 0
		c.srv.Serve("srv", 1, func(st *sim.Task, d *proc.Delivery) {
			if served++; served > 1 {
				t.Error("the provider's own reply Request delivered after the refused Reply")
				return
			}
			if err := d.Reply(0, []wire.ImmArg{proc.U64Arg(0, 1)}, []proc.Arg{{Slot: 1, Cap: own}}); err != nil {
				t.Error(err)
			}
			st.Sleep(us(100))
			done.Set(c.srv.Invoke(st, own, nil, nil))
		})
		log := traceSends(cl)
		if err := c.cli.Invoke(tk, c.creq, nil, []proc.Arg{{Slot: 0, Cap: cont}}); err != nil {
			t.Error(err)
			return
		}
		err, _ = done.Wait(tk)
		if !wire.IsStatus(err, wire.StatusRevoked) {
			t.Errorf("the provider's own reply Request after the refused Reply: %v, want StatusRevoked", err)
		}
		c0, c1, srv := cl.CtrlFor(0).EndpointID(), cl.CtrlFor(1).EndpointID(), c.srv.Endpoint()
		got := after(*log, sent{srv, c1, wire.TReqInvoke})
		if !slices.Contains(got, sent{c0, c1, wire.TCtrlAck}) || cl.CtrlFor(0).Metrics().InvokesRefused != 1 {
			t.Errorf("the reply's messages %v, %d invocations refused by its owner: want its CtrlAck, 1",
				got, cl.CtrlFor(0).Metrics().InvokesRefused)
		}
	})
}

// TestFailedReplyIsCounted: the caller's deadline passes while the
// handler works, so the continuation is revoked, and the revocation's
// cleanup purges it from the provider's capability space before the
// answer is posted. Reply has returned long before and waits for nothing:
// the refusal is counted where it is decided, at the provider's own
// Controller, and Serve has gone on to answer the next request.
func TestFailedReplyIsCounted(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		c := newCallPair(t, tk, cl, 1)
		c.srv.Serve("srv", 1, func(st *sim.Task, d *proc.Delivery) {
			if d.U64(0) == 0 {
				st.Sleep(us(300))
			}
			if err := d.Reply(0, []wire.ImmArg{proc.U64Arg(0, d.U64(0)+1)}, nil); err != nil {
				t.Error(err)
			}
		})
		if _, err := c.cli.CallTimeout(tk, c.creq, []wire.ImmArg{proc.U64Arg(0, 0)}, nil, 0, us(100)); !errors.Is(err, proc.ErrCallTimeout) {
			t.Errorf("call answered after its deadline: %v, want ErrCallTimeout", err)
		}
		c.call(t, tk, 5)
		tk.Sleep(us(100))
		at0, at1 := cl.CtrlFor(0).Metrics().InvokesRefused, cl.CtrlFor(1).Metrics().InvokesRefused
		if at0 != 0 || at1 != 1 || c.srv.Pending() != 0 {
			t.Errorf("invocations refused: %d at the caller's Controller, %d at the provider's; %d completions outstanding; want 0, 1, 0", at0, at1, c.srv.Pending())
		}
	})
}

// TestReplyLocalErrors: what Reply can tell without waiting — an
// argument of another Process, a channel to the Controller already gone
// — it returns, and sends nothing.
func TestReplyLocalErrors(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		c := newCallPair(t, tk, cl, 1)
		invokes := 0
		cl.Net.SetTrace(func(e fabric.TraceEvent) {
			if e.From == c.srv.Endpoint() && e.Type == wire.TReqInvoke {
				invokes++
			}
		})
		var errs []error
		c.srv.Serve("srv", 1, func(_ *sim.Task, d *proc.Delivery) {
			errs = append(errs, d.Reply(0, nil, []proc.Arg{{Slot: 1, Cap: c.creq}}))
			c.srv.Bye()
			errs = append(errs, d.Reply(0, nil, nil))
		})
		if _, err := c.cli.CallTimeout(tk, c.creq, nil, nil, 0, us(100)); err == nil {
			t.Error("a call to a provider that never answered was answered")
		}
		if len(errs) != 2 || !errors.Is(errs[0], proc.ErrForeignCap) || !errors.Is(errs[1], proc.ErrDisconnected) || invokes != 0 {
			t.Errorf("replies returned %v and sent %d invocations; want ErrForeignCap, ErrDisconnected and none", errs, invokes)
		}
	})
}
