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
			cfg := core.ClusterConfig{Nodes: 2}
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
		run(t, core.ClusterConfig{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
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
			if c.srv.Pending() != 0 || c.srv.FailedReplies() != 0 {
				t.Errorf("provider on node %d: %d completions outstanding, %d failed replies; want none", srvNode, c.srv.Pending(), c.srv.FailedReplies())
			}
		})
	}
}

// TestFailedReplyIsCounted: the caller's deadline passes while the
// handler works, so the continuation is revoked when the answer reaches
// its owner. Reply has returned long before: the refusal is counted, and
// Serve has gone on to answer the next request.
func TestFailedReplyIsCounted(t *testing.T) {
	run(t, core.ClusterConfig{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
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
		if c.srv.FailedReplies() != 1 || c.srv.Pending() != 0 {
			t.Errorf("%d failed replies, %d completions outstanding; want 1, 0", c.srv.FailedReplies(), c.srv.Pending())
		}
	})
}

// TestReplyLocalErrors: what Reply can tell without waiting — an
// argument of another Process, a channel to the Controller already gone
// — it returns, and sends nothing.
func TestReplyLocalErrors(t *testing.T) {
	run(t, core.ClusterConfig{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
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
