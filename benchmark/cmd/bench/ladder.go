package main

import (
	"runtime"
	"time"

	"fractos/internal/assert"
	"fractos/internal/fabric"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/testbed/stacks"
	"fractos/internal/wire"
)

// The layer ladder (ROADMAP): each rung times calls into one layer's
// public functions in isolation, on its own kernel, so a rung's host
// cost per operation does not depend on the workload. Rungs are
// cumulative — a fabric send includes a wire round trip and a kernel
// hand-off, a null syscall includes two sends — so a layer's own cost
// is the difference between adjacent rungs. Every rung takes the
// divisor the smoke test shrinks the whole benchmark by.

// rung is the host cost of one operation.
type rung struct {
	ns     float64
	allocs float64
}

// timeOps runs fn, which performs ops operations, and returns the cost
// of one. It takes the best of three runs: a rung is a property of the
// code, and the fastest run is the one the host disturbed least.
func timeOps(ops int, fn func()) rung {
	best := rung{ns: -1}
	for try := 0; try < 3; try++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		fn()
		ns := float64(time.Since(t0).Nanoseconds()) / float64(ops)
		runtime.ReadMemStats(&m1)
		if best.ns < 0 || ns < best.ns {
			best = rung{ns: ns, allocs: float64(m1.Mallocs-m0.Mallocs) / float64(ops)}
		}
	}
	return best
}

// simDispatch: a chain of same-instant After(0) closures; no task is
// involved, so this is the event loop alone.
func simDispatch(div int) rung {
	events := 200000 / div
	return timeOps(events, func() {
		k := sim.New(1)
		n := 0
		var step func()
		step = func() {
			if n++; n < events {
				k.After(0, step)
			}
		}
		k.After(0, step)
		k.Run()
	})
}

// simSwitch: two tasks bouncing a value over unbuffered channels; one
// operation is one hand-off from a sender to a parked receiver.
func simSwitch(div int) rung {
	rounds := 50000 / div
	return timeOps(2*rounds, func() {
		k := sim.New(3)
		ping := sim.NewChan[int](k, "ping", 0)
		pong := sim.NewChan[int](k, "pong", 0)
		k.Spawn("echo", func(t *sim.Task) {
			for {
				v, ok := ping.Recv(t)
				if !ok {
					return
				}
				pong.Send(t, v)
			}
		})
		k.Spawn("driver", func(t *sim.Task) {
			for j := 0; j < rounds; j++ {
				ping.Send(t, j)
				pong.Recv(t)
			}
			ping.Close()
		})
		k.Run()
		k.Shutdown()
	})
}

// simTimer: 64 tasks sleeping for mixed durations; one operation is one
// Sleep (heap insert, pop, park and resume).
func simTimer(div int) rung {
	tasks, sleeps := 64, 1000/div
	body := func(t *sim.Task) {
		d := sim.Time(int(t.ID()-1)%9+1) * 100
		for s := 0; s < sleeps; s++ {
			t.Sleep(d)
		}
	}
	return timeOps(tasks*sleeps, func() {
		k := sim.New(7)
		for j := 0; j < tasks; j++ {
			k.Spawn("timer", body)
		}
		k.Run()
		k.Shutdown()
	})
}

// canonical messages for the wire rung: a request_invoke with a small
// immediate and two capability arguments, a completion, a memory_copy.
func canonicalMessages() [3]wire.Message {
	return [3]wire.Message{
		&wire.ReqInvoke{Token: 42, Cid: 7,
			Imms: []wire.ImmArg{{Offset: 0, Data: make([]byte, 64)}},
			Caps: []wire.CapSlot{{Slot: 0, Cid: 9}, {Slot: 1, Cid: 11}}},
		&wire.Completion{Token: 17, Status: 0, Cid: 5, Aux: 4096},
		&wire.MemCopy{Token: 9, SrcCid: 3, DstCid: 4},
	}
}

// canonicalOf maps a traced wire type to the canonical message whose
// shape it shares: invocations and deliveries carry immediates and
// capability slots, syscall requests are small fixed records, and
// everything else (completions, acks) is smaller still.
func canonicalOf(t wire.Type) int {
	switch t {
	case wire.TReqInvoke, wire.TDeliver, wire.TCtrlInvoke, wire.TReqCreate, wire.TCtrlDeriveReq:
		return 0
	case wire.TMemCopy, wire.TMemCreate, wire.TMemDiminish, wire.TCapDrop, wire.TCapRevoke, wire.TCapRevtree, wire.TCtrlValidate:
		return 2
	default:
		return 1
	}
}

// wireRoundTrip: Marshal plus Unmarshal of the canonical messages,
// weighted by the share of each shape in the traced type mix.
func wireRoundTrip(mix [3]float64, div int) rung {
	ops := 100000 / div
	var out rung
	for i, m := range canonicalMessages() {
		if mix[i] == 0 {
			continue
		}
		var buf []byte
		r := timeOps(ops, func() {
			for j := 0; j < ops; j++ {
				buf = wire.AppendMarshal(buf[:0], m)
				if _, err := wire.Unmarshal(buf); err != nil {
					return
				}
			}
		})
		out.ns += mix[i] * r.ns
		out.allocs += mix[i] * r.allocs
	}
	return out
}

// fabricSend: Net.Send plus Inbox.Recv between two bare endpoints on
// different nodes; one operation is one delivered message.
func fabricSend(div int) rung {
	msgs := 50000 / div
	return timeOps(msgs, func() {
		k := sim.New(11)
		net := fabric.New(k, fabric.DefaultProfile())
		src := net.Attach("src", fabric.Location{Node: 0}, 0)
		dst := net.Attach("dst", fabric.Location{Node: 1}, 0)
		k.Spawn("rx", func(t *sim.Task) {
			for j := 0; j < msgs; j++ {
				if _, ok := dst.Inbox.Recv(t); !ok {
					return
				}
			}
		})
		k.Spawn("tx", func(t *sim.Task) {
			m := canonicalMessages()[0].(*wire.ReqInvoke)
			for j := 0; j < msgs; j++ {
				m.Token = uint64(j)
				if !net.Send(src.ID, dst.ID, m) {
					return
				}
				t.Sleep(1000)
			}
		})
		k.Run()
		k.Shutdown()
	})
}

// fabricRDMA: a 64 KiB one-sided read between two nodes.
func fabricRDMA(div int) rung {
	const size = 64 << 10
	ops := 5000 / div
	return timeOps(ops, func() {
		k := sim.New(13)
		net := fabric.New(k, fabric.DefaultProfile())
		a := net.Attach("a", fabric.Location{Node: 0}, size)
		b := net.Attach("b", fabric.Location{Node: 1}, size)
		k.Spawn("reader", func(t *sim.Task) {
			for j := 0; j < ops; j++ {
				if _, err := net.RDMARead(a.ID, 0, b.ID, 0, size).Wait(t); err != nil {
					return
				}
			}
		})
		k.Run()
		k.Shutdown()
	})
}

// coreNull: the null syscall of one Process against its own
// Controller. Returns the host cost and the virtual latency (paper:
// 3.00 µs).
func coreNull(div int) (rung, sim.Time) {
	ops := 20000 / div
	var virt sim.Time
	r := timeOps(ops, func() {
		testbed.Run(testbed.Spec{Nodes: 2}, func(tk *sim.Task, d *testbed.Deployment) {
			p := d.Attach(0, "null-client", 0)
			start := tk.Now()
			for j := 0; j < ops; j++ {
				if err := p.Null(tk); err != nil {
					return
				}
			}
			virt = (tk.Now() - start) / sim.Time(ops)
		})
	})
	return r, virt
}

// procCall: one unloaded client calling the echo Process across nodes
// — the invoke-null request at one outstanding.
func procCall(div int) rung {
	ops := 10000 / div
	return timeOps(ops, func() {
		v := &invoke{}
		testbed.Run(v.spec(), func(tk *sim.Task, d *testbed.Deployment) {
			v.start(tk, d)
			for j := 0; j < ops; j++ {
				if v.request(tk, 0, j) != nil {
					return
				}
			}
		})
	})
}

// routeDo: Routed.Do with zero service time from one caller — a
// proc.Call plus the balancer's pick and bookkeeping and the replica's
// admission queue.
func routeDo(div int) rung {
	ops := 10000 / div
	return timeOps(ops, func() {
		s := &stacks.Routed{Replicas: routeReplicas, Policy: "least", Nodes: []int{1, 2, 3}}
		testbed.Run(testbed.Spec{Nodes: 4, Services: []testbed.Service{s}}, func(tk *sim.Task, d *testbed.Deployment) {
			for j := 0; j < ops; j++ {
				if s.Do(tk, uint64(j)+1, 0) != nil {
					return
				}
			}
		})
	})
}

// validateRung times Controller.Validate on a live Request of a fresh
// Process, at the occupancy the workload left behind on node 0's
// Controller, and counts the capability-space entries of all
// Controllers. It costs a few simulation events, so the set-up-only
// twin that calibrates the event count runs it too.
func validateRung(tk *sim.Task, m *measured, div int) (ns float64, entries int) {
	const entryBytes = 40 // what core.Footprint charges per entry
	for _, c := range m.d.Cl.Ctrls {
		entries += int(c.Footprint().CapSpaceBytes / entryBytes)
	}
	p := m.d.Attach(0, "validate-probe", 0)
	c, err := p.RequestCreate(tk, echoTag, nil, nil)
	assert.NoErr(err, "bench: validate probe")
	ctrl := m.d.Cl.CtrlFor(0)
	e, ok := ctrl.EntryOf(p.ID(), c.ID())
	assert.That(ok, "bench: validate probe has no entry")
	ops := 1000000 / div
	r := timeOps(ops, func() {
		for j := 0; j < ops; j++ {
			if _, st := ctrl.Validate(e.Ref, 0); st != wire.StatusOK {
				return
			}
		}
	})
	return r.ns, entries
}
