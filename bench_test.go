// Package repro's tests are the simulator's gates: what one message, one
// cross-node Call and one memory_copy may cost in heap objects
// (TestAllocGate*), kernel events (TestEventGate*) and virtual time
// (TestVirtGate*). The counts are properties of the program, so the
// event and virtual-clock gates are equalities; the ledgers behind the
// constants are in docs/PERFORMANCE.md. How fast the simulator runs is
// measured by the repository's benchmark (bash benchmark/run.sh), the
// paper's tables are regenerated by cmd/fractos-bench and gated in
// internal/exp, the capability engine's benchmarks are in internal/cap,
// and BenchmarkFaceVerifySetup times one face-verification set-up.
package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"fractos/internal/app/faceverify"
	"fractos/internal/baseline"
	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/fabric"
	"fractos/internal/load"
	"fractos/internal/proc"
	"fractos/internal/route"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/testbed/stacks"
	"fractos/internal/wire"
)

// validateSink keeps the validation-gate results live so the compiler
// cannot elide the calls under test.
var validateSink *cap.Node

// TestAllocGateKernelDispatch pins the kernel's zero-alloc property:
// steady-state event dispatch — After(0) chains over a warmed event
// pool and run-queue ring — must not allocate per event. The only
// tolerated allocations are the one deferred flush closure each Run
// call makes (amortized over every event of the run) plus measurement
// noise.
func TestAllocGateKernelDispatch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const eventsPerRun = 1000
	k := sim.New(1)
	n := 0
	var step func()
	step = func() {
		n++
		if n%eventsPerRun != 0 {
			k.After(0, step)
		}
	}
	// Warm-up run: primes the event pool and grows the ring once.
	k.After(0, step)
	k.Run()
	perRun := testing.AllocsPerRun(20, func() {
		k.After(0, step)
		k.Run()
	})
	if perEvent := perRun / eventsPerRun; perEvent > 0.01 {
		t.Errorf("kernel dispatch allocates %.4f objects/event (%.1f per %d-event run); hot path must be allocation-free",
			perEvent, perRun, eventsPerRun)
		explainAllocs(t, eventsPerRun, func() {
			k.After(0, step)
			k.Run()
		})
	}
}

// TestAllocGateWireMarshal pins the wire codec's allocation contract on
// the path the fabric takes: MarshalTo into a reused Writer — what a
// Frame carries — allocates nothing once the Writer has grown to the
// message.
func TestAllocGateWireMarshal(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, m := range []wire.Message{
		&wire.Completion{Token: 7, Status: wire.StatusOK, Aux: 42},
		&wire.ReqInvoke{Token: 42, Cid: 7, Imms: []wire.ImmArg{{Data: make([]byte, 64)}},
			Caps: []wire.CapSlot{{Slot: 0, Cid: 9}, {Slot: 1, Cid: 11}}},
	} {
		var w wire.Writer
		wire.MarshalTo(&w, m) // grows w to the message
		marshal := func() {
			w.Reset()
			wire.MarshalTo(&w, m)
		}
		if per := testing.AllocsPerRun(100, marshal); per > 0 {
			t.Errorf("MarshalTo of a %T into a reused Writer allocates %.1f objects/op, want 0", m, per)
			explainAllocs(t, 1, marshal)
		}
	}
}

// TestAllocGateCapValidate pins the capability engine's validation
// contract: Controller.Validate — the epoch-fenced revtree probe on
// every syscall's fast path — performs zero allocations, with the
// owning Process's capability space soaked at a million live entries
// so the measurement reflects slab-backed O(1) lookups, not a small
// warm space. This is the CI gate behind the cap-scale acceptance
// criterion (see docs/PERFORMANCE.md).
func TestAllocGateCapValidate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const soak = 1_000_000
	cl := core.NewCluster(core.ClusterConfig{Nodes: 2, Placement: core.CtrlShared})
	srv := proc.Attach(cl, 0, "srv", 1<<12)
	ctrl := cl.Ctrls[0]
	var ref cap.Ref
	ready := false
	cl.K.Spawn("setup", func(tk *sim.Task) {
		mem, _, err := srv.AllocMemory(tk, 4096, cap.MemRights)
		if err != nil {
			return
		}
		e, ok := ctrl.EntryOf(srv.ID(), mem.ID())
		if !ok {
			return
		}
		ref = e.Ref
		// Soak the space: a million live bystander capabilities, so the
		// gated lookups run against paper-scale occupancy.
		for i := 1; i < soak; i++ {
			if _, ok := ctrl.GrantEntry(srv.ID(), e); !ok {
				return
			}
		}
		ready = true
	})
	cl.K.Run()
	cl.K.Shutdown()
	if !ready {
		t.Fatal("setup did not complete")
	}
	if n, st := ctrl.Validate(ref, cap.Read); n == nil || st != wire.StatusOK {
		t.Fatalf("validate fast path missed: status %v", st)
	}
	validate := func() {
		n, st := ctrl.Validate(ref, cap.Read)
		if n == nil || st != wire.StatusOK {
			t.Fatal("validate fast path missed inside gate")
		}
		validateSink = n
	}
	if per := testing.AllocsPerRun(1000, validate); per > 0 {
		t.Errorf("Controller.Validate allocates %.2f objects/op at %d live caps, want 0", per, soak)
		explainAllocs(t, 1, validate)
	}
}

// mallocs reads the process-wide count of heap objects allocated so
// far. The gates below take its difference around a loop running
// inside one simulation task: exactly one goroutine executes at a time
// under the kernel, so the difference is the loop's own allocations.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// noGC collects, then keeps the collector off until the function it
// returns restores it: a gate that defers it has no collection in its
// measured window, and none of the runtime allocations one sets off.
// A cycle that lands in the window wakes the background scavenger,
// whose sleep timer can grow the P's timer heap
// (runtime.(*timers).addHeap under runtime.bgscavenge): one object in
// the window, which a gate whose bound is its reading fails on — on a
// 2-CPU host in 3 of 60 runs of the gates, none of 100 with the
// collector off.
func noGC() func() {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(old) }
}

// explainAllocs reruns loop, the measured loop of ops operations of a
// gate that failed, with every allocation sampled (runtime.MemProfileRate
// 1) and logs the five stacks that allocated most in that run: the call
// chain a failing gate prints beside its count.
func explainAllocs(t *testing.T, ops int, loop func()) {
	t.Helper()
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	// Both snapshots' storage is allocated before the collection that
	// publishes the first: what the loop allocated is all that differs.
	n, _ := runtime.MemProfile(nil, true)
	before, after := make([]runtime.MemProfileRecord, n+1024), make([]runtime.MemProfileRecord, n+1024)
	runtime.GC()
	nb, _ := runtime.MemProfile(before, true)
	loop()
	runtime.GC()
	na, ok := runtime.MemProfile(after, true)
	if !ok {
		t.Logf("the allocation profile outgrew its snapshot: %d stacks", na)
		return
	}
	was := make(map[[32]uintptr]int64, nb)
	for _, r := range before[:nb] {
		was[r.Stack0] += r.AllocObjects
	}
	type site struct {
		stack [32]uintptr
		n     int64
	}
	var sites []site
	for _, r := range after[:na] {
		if n := r.AllocObjects - was[r.Stack0]; n > 0 {
			sites = append(sites, site{r.Stack0, n})
		}
	}
	slices.SortFunc(sites, func(a, b site) int { return int(b.n - a.n) })
	for _, st := range sites[:min(len(sites), 5)] {
		var b strings.Builder
		frames := runtime.CallersFrames(slices.DeleteFunc(st.stack[:], func(pc uintptr) bool { return pc == 0 }))
		for i := 0; i < 8; i++ {
			f, more := frames.Next()
			fmt.Fprintf(&b, "\n\t%s:%d", f.Function, f.Line)
			if !more {
				break
			}
		}
		t.Logf("%.4f objects per operation allocated at:%s", float64(st.n)/float64(ops), b.String())
	}
}

// borrowingRx is the receiver the fabric is built for: a Handler that
// decodes each frame through its own Decoder, is done with the message
// before it returns, and releases the frame.
type borrowingRx struct {
	dec    *wire.Decoder
	tokens uint64 // sum of the tokens seen, so the decode is not dead code
}

func (h *borrowingRx) Deliver(f *fabric.Frame) {
	if m, err := h.dec.Decode(f.Bytes()); err == nil {
		switch m := m.(type) {
		case *wire.ReqInvoke:
			h.tokens += m.Token + uint64(len(m.Imms[0].Data)) + uint64(len(m.Caps))
		case *wire.Completion:
			h.tokens += m.Token
		}
	}
	f.Release()
}

// TestAllocGateNetSend pins what one message costs on the fabric. To a
// Handler endpoint it costs nothing: the frame is encoded into a pooled
// buffer, travels as the delivery event itself and is decoded into the
// receiver's Decoder. A bare endpoint's Inbox owns what it receives, so
// there the owning decode allocates the message and nothing else: for
// the canonical ReqInvoke (one 64-byte immediate, two capability slots)
// the struct — which carries room for its one immediate argument — the
// immediate's bytes and the slot list; for a fixed-size Completion the
// struct alone.
func TestAllocGateNetSend(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const msgs = 2000
	invoke := &wire.ReqInvoke{Token: 42, Cid: 7,
		Imms: []wire.ImmArg{{Offset: 0, Data: make([]byte, 64)}},
		Caps: []wire.CapSlot{{Slot: 0, Cid: 9}, {Slot: 1, Cid: 11}}}
	completion := &wire.Completion{Token: 17, Cid: 5, Aux: 4096}
	cases := []struct {
		name    string
		m       wire.Message
		handler bool
		max     float64
	}{
		{"ReqInvoke to a Handler", invoke, true, 0},
		{"Completion to a Handler", completion, true, 0},
		{"ReqInvoke to an Inbox", invoke, false, 3},
		{"Completion to an Inbox", completion, false, 1},
	}
	for _, c := range cases {
		k := sim.New(11)
		net := fabric.New(k, fabric.DefaultProfile())
		src := net.Attach("src", fabric.Location{Node: 0}, 0)
		rx := &borrowingRx{dec: wire.NewDecoder()}
		var dst *fabric.Endpoint
		if c.handler {
			dst = net.AttachHandler("dst", fabric.Location{Node: 1}, 0, rx)
		} else {
			dst = net.Attach("dst", fabric.Location{Node: 1}, 0)
			k.Spawn("rx", func(tk *sim.Task) {
				for {
					if _, ok := dst.Inbox.Recv(tk); !ok {
						return
					}
				}
			})
		}
		k.Spawn("tx", func(tk *sim.Task) {
			send := func(n int) {
				for i := 0; i < n; i++ {
					if !net.Send(src.ID, dst.ID, c.m) {
						t.Errorf("%s: send refused", c.name)
					}
					tk.Sleep(1000)
				}
			}
			send(100) // warm the frame, event and waiter pools
			before := mallocs()
			send(msgs)
			if per := float64(mallocs()-before) / msgs; per > c.max+0.01 {
				t.Errorf("Net.Send of a %s allocates %.2f objects/message, want <= %.0f", c.name, per, c.max)
				explainAllocs(t, msgs, func() { send(msgs) })
			}
		})
		k.Run()
		k.Shutdown()
		if c.handler && rx.tokens == 0 {
			t.Errorf("%s: the handler decoded nothing", c.name)
		}
	}
}

// TestAllocGateFutureWait pins the future's allocation contract on a
// reused future: waiting on an already-resolved future, and parking
// the single waiter until a kernel event resolves it (Due), both
// allocate nothing.
func TestAllocGateFutureWait(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const rounds = 2000
	k := sim.New(5)
	k.Spawn("waiter", func(tk *sim.Task) {
		f := sim.NewFuture[int]()
		loop := func(n int, park bool) {
			for i := 0; i < n; i++ {
				if park {
					k.AfterCall(10, f.Due(i))
				} else {
					f.Set(i)
				}
				if v, err := f.Wait(tk); v != i || err != nil {
					t.Errorf("round %d: got %d, %v", i, v, err)
				}
				f.Reset()
			}
		}
		loop(10, true) // warm the kernel's event pool
		for _, park := range []bool{false, true} {
			before := mallocs()
			loop(rounds, park)
			if per := float64(mallocs()-before) / rounds; per > 0.01 {
				t.Errorf("waiting on a future (parked %v) allocates %.2f objects/round, want 0", park, per)
				explainAllocs(t, rounds, func() { loop(rounds, park) })
			}
		}
	})
	k.Run()
	k.Shutdown()
}

const (
	echoTag   = 1
	replySlot = 15
)

// deployEcho attaches the null-Request echo server on node 1: it
// answers every delivery by invoking the reply Request in replySlot
// with the caller's sequence number. srv is nil if set-up failed.
func deployEcho(t *testing.T, tk *sim.Task, d *testbed.Deployment) (srv *proc.Process, root proc.Cap) {
	srv = d.Attach(1, "echo", 0)
	root, err := srv.RequestCreate(tk, echoTag, nil, nil)
	if err != nil {
		t.Error(err)
		return nil, root
	}
	d.Spawn("echo-loop", func(et *sim.Task) {
		for {
			dv, ok := srv.Receive(et)
			if !ok {
				return
			}
			if rep, ok := dv.Cap(replySlot); ok {
				_ = srv.Invoke(et, rep, []wire.ImmArg{proc.U64Arg(0, dv.U64(0))}, nil)
			}
			dv.Done()
		}
	})
	return srv, root
}

// deployEchoClient is deployEcho plus one client on node 0 holding the
// echo Request. cli is nil if set-up failed.
func deployEchoClient(t *testing.T, tk *sim.Task, d *testbed.Deployment) (cli *proc.Process, req proc.Cap) {
	srv, root := deployEcho(t, tk, d)
	if srv == nil {
		return nil, req
	}
	cli = d.Attach(0, "client", 0)
	req, err := proc.GrantCap(srv, root, cli)
	if err != nil {
		t.Error(err)
		return nil, req
	}
	return cli, req
}

// nullCalls runs the paper's Table 3 / §6.1 exchange on a fresh
// two-node deployment whose fabric injects chaos (the zero Faults:
// none): warm+calls cross-node proc.Calls of a null Request, 11 wire
// messages and 4 syscalls over two Controllers each. It returns the
// objects allocated per call over the last `calls` of them and the
// kernel events of the whole run, set-up included.
func nullCalls(t *testing.T, chaos fabric.Faults, warm, calls int) (allocsPerCall float64, events uint64) {
	e0 := sim.TotalEvents()
	testbed.RunT(t, testbed.Spec{Nodes: 2, Seed: 5, Chaos: chaos}, func(tk *sim.Task, d *testbed.Deployment) {
		cli, req := deployEchoClient(t, tk, d)
		if cli == nil {
			return
		}
		call := func(from, n int) {
			for i := from; i < from+n; i++ {
				seq := uint64(i) + 1
				dv, err := cli.Call(tk, req, []wire.ImmArg{proc.U64Arg(0, seq)}, nil, replySlot)
				if err != nil || dv.U64(0) != seq {
					t.Errorf("call %d: reply %v, err %v", i, dv, err)
					return
				}
			}
		}
		call(0, warm)
		before := mallocs()
		call(warm, calls)
		allocsPerCall = float64(mallocs()-before) / float64(calls)
	})
	return allocsPerCall, sim.TotalEvents() - e0
}

// TestAllocGateNullCall pins the whole control path end to end (see
// nullCalls). The one object left is the echo server's request_receive
// descriptor (Receive's: the server keeps it); the caller's reply
// descriptor is recycled, and both ends' immediates stay on their stacks
// (TestAllocGateImmediates). The ledger is in docs/PERFORMANCE.md. This
// workload allocated 113 objects per call before the per-message path
// was made allocation-free, 39 while every frame was decoded into a
// fresh message at send time, 7 while every Call created a reply
// Request, 6 while every reply was a descriptor of its own, and 5 while
// libfractos posted the caller's immediate list itself, so that the list
// and its U64Arg array escaped to the heap at each end.
func TestAllocGateNullCall(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	// The bound is exact, so the runtime's own allocations must stay out
	// of the window: with two Ps a task switch now and then allocates a
	// goroutine wait record (runtime.acquireSudog under Task.park, the
	// drift parkwarm.go describes): 1 to 5 objects in 2000 calls, in
	// about one run in twenty. On one P the records stay in one cache.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const maxPerCall = 1
	per, _ := nullCalls(t, fabric.Faults{}, 200, 2000)
	if per > maxPerCall {
		t.Errorf("null cross-node Call allocates %.4f objects, want <= %d", per, maxPerCall)
		explainAllocs(t, 2000, func() { nullCalls(t, fabric.Faults{}, 200, 2000) }) // set-up's stacks among them
	}
	t.Logf("null cross-node Call: %.4f allocs", per)
}

// TestAllocGateLossyCall pins the armed at-most-once path: at 1 % frame
// loss, which arms retransmission and with it every Controller's reply
// cache, a warm null Call allocates what a reliable one does (nullCalls)
// to within 0.01 objects. The cache remembers the acks of both forwarded
// invocations of each Call; it read 8 objects per Call, not 6, while it
// heap-copied each ack into a map of messages. The ledger is in
// docs/PERFORMANCE.md.
func TestAllocGateLossyCall(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const calls, slack = 4000, 0.01
	reliable, _ := nullCalls(t, fabric.Faults{}, 200, calls)
	lossy, _ := nullCalls(t, fabric.Faults{Drop: 0.01}, 200, calls)
	if lossy > reliable+slack {
		t.Errorf("null cross-node Call at 1 %% loss allocates %.4f objects, want <= %.4f (reliable) + %.2f", lossy, reliable, slack)
		explainAllocs(t, calls, func() { nullCalls(t, fabric.Faults{Drop: 0.01}, 200, calls) }) // set-up's stacks among them
	}
	t.Logf("null cross-node Call: %.4f allocs reliable, %.4f at 1 %% loss", reliable, lossy)
}

// TestAllocGateCallDeadline pins a Call's deadline path: a provider that
// takes every invocation and never answers, so each warm CallTimeout
// ends at its deadline (callOp.Fire), retires its reply Request with a
// cap_revoke and leaves the next call to create another. The bound is
// the measured count: the reply Request's record and object, which the
// next call creates (getReply, handleReqCreate), the revoked list
// cap.Tree.Revoke returns, the cleanup flush's closure
// (processRevocations) and its CtrlCleanup frame (Controller.frame). It
// was 11 while each flush regrew the batch's lists from nil, allocated
// the batch and sorted a fresh slice of peer ids through a closure.
func TestAllocGateCallDeadline(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as TestAllocGateNullCall
	defer noGC()()
	const warm, calls, maxPerCall = 50, 500, 6
	var per float64
	testbed.RunT(t, testbed.Spec{Nodes: 2, Seed: 5}, func(tk *sim.Task, d *testbed.Deployment) {
		srv := d.Attach(1, "silent", 0)
		srv.Handle(func(dv *proc.Delivery) { dv.Finish() })
		root, err := srv.RequestCreate(tk, echoTag, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		cli := d.Attach(0, "client", 0)
		req, err := proc.GrantCap(srv, root, cli)
		if err != nil {
			t.Error(err)
			return
		}
		timeouts := func(n int) {
			for i := range n {
				if _, err := cli.CallTimeout(tk, req, nil, nil, replySlot, testbed.USec(100)); err != proc.ErrCallTimeout {
					t.Errorf("call %d: %v, want a timeout", i, err)
					return
				}
			}
		}
		timeouts(warm)
		before := mallocs()
		timeouts(calls)
		per = float64(mallocs()-before) / calls
		if per > maxPerCall {
			explainAllocs(t, calls, func() { timeouts(calls) })
		}
	})
	if per > maxPerCall {
		t.Errorf("a Call that times out allocates %.4f objects, want <= %d", per, maxPerCall)
	}
	t.Logf("a Call that times out: %.4f allocs", per)
}

// TestAllocGateBaselineCall pins a warm round trip of the baselines'
// Raw protocol (baseline.Peer): a client's Call to a server on another
// node that echoes the 64-byte payload. The bound is the measured count:
// both ends clone the payload out of the frame, by design, since it
// outlives the frame. It was 6 while each end's wire.Raw escaped into
// Net.Send (a Peer builds it in place now, as a Controller does) and the
// blocking Call allocated its future and the continuation that settled
// it (it takes a recycled future).
func TestAllocGateBaselineCall(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as TestAllocGateNullCall
	defer noGC()()
	const warm, calls, maxPerCall = 50, 2000, 2
	var per float64
	testbed.RunT(t, testbed.Spec{Nodes: 2, Seed: 5}, func(tk *sim.Task, d *testbed.Deployment) {
		net := d.Cl.Net
		var srv *baseline.Peer
		srv = baseline.NewPeer(net, "server", fabric.Location{Node: 1, Domain: fabric.Host}, 0, func(req baseline.Request) error {
			srv.Reply(req.Data, false)
			return nil
		})
		cli := baseline.NewPeer(net, "client", fabric.Location{Node: 0, Domain: fabric.Host}, 0, nil)
		payload := make([]byte, 64)
		roundTrips := func(n int) {
			for i := range n {
				if got, err := cli.Call(tk, srv.EP.ID, 1, payload, false); err != nil || len(got) != len(payload) {
					t.Errorf("round trip %d: %d bytes, %v", i, len(got), err)
					return
				}
			}
		}
		roundTrips(warm)
		before := mallocs()
		roundTrips(calls)
		per = float64(mallocs()-before) / calls
		if per > maxPerCall {
			explainAllocs(t, calls, func() { roundTrips(calls) })
		}
	})
	if per > maxPerCall {
		t.Errorf("a baseline round trip allocates %.4f objects, want <= %d", per, maxPerCall)
	}
	t.Logf("a baseline round trip: %.4f allocs", per)
}

// memCopies runs warm+n cross-node memory_copies of size bytes on a
// fresh two-node deployment, all issued by a Process on node 0: pushes
// of its own memory to node 1, or pulls the other way. Every copy is
// one syscall, one validation round trip to the remote end's owner and
// size/16 KiB bounce-buffer chunks, and is checked end to end. It
// returns the objects allocated per copy over the last n of them and
// the kernel events of the whole run, set-up included. A ranged copy
// moves the same bytes out of and into the middle of objects 96 bytes
// larger, by one syscall all the same.
func memCopies(t *testing.T, size int, pull, ranged bool, warm, n int) (allocsPerCopy float64, events uint64) {
	return memCopiesWith(t, core.Config{}, size, pull, ranged, warm, n)
}

// memCopiesWith is memCopies on Controllers made from ctrl.
func memCopiesWith(t *testing.T, ctrl core.Config, size int, pull, ranged bool, warm, n int) (allocsPerCopy float64, events uint64) {
	e0 := sim.TotalEvents()
	testbed.RunT(t, testbed.Spec{Nodes: 2, Seed: 5, Ctrl: ctrl}, func(tk *sim.Task, d *testbed.Deployment) {
		objSize, srcOff, dstOff := size, 0, 0
		if ranged {
			objSize, srcOff, dstOff = size+96, 31, 64
		}
		local, remote := d.Attach(0, "local", objSize), d.Attach(1, "remote", objSize)
		lmem, lbuf, err := local.AllocMemory(tk, objSize, cap.MemRights)
		if err != nil {
			t.Error(err)
			return
		}
		rmem, rbuf, err := remote.AllocMemory(tk, objSize, cap.MemRights)
		if err != nil {
			t.Error(err)
			return
		}
		if rmem, err = proc.GrantCap(remote, rmem, local); err != nil {
			t.Error(err)
			return
		}
		src, dst, from, to := lmem, rmem, lbuf, rbuf
		if pull {
			src, dst, from, to = rmem, lmem, rbuf, lbuf
		}
		from, to = from[srcOff:], to[dstOff:]
		copies := func(first, n int) {
			for i := first; i < first+n; i++ {
				from[0], from[size-1] = byte(i), byte(i>>8)
				var err error
				if ranged {
					err = local.MemoryCopyRange(tk, src, uint64(srcOff), dst, uint64(dstOff), uint64(size))
				} else {
					err = local.MemoryCopy(tk, src, dst)
				}
				if err != nil || to[0] != byte(i) || to[size-1] != byte(i>>8) {
					t.Errorf("copy %d: err %v, arrived %d,%d", i, err, to[0], to[size-1])
					return
				}
			}
		}
		copies(0, warm)
		before := mallocs()
		copies(warm, n)
		allocsPerCopy = float64(mallocs()-before) / float64(n)
	})
	return allocsPerCopy, sim.TotalEvents() - e0
}

// TestAllocGateMemCopy pins the data path: a cross-node 64 KiB
// memory_copy — 8 RDMA operations, every one an event aimed at the
// copy's pooled record — allocates nothing, and neither does waiting
// for it: the blocking MemoryCopy waits on a recycled future. It was 3
// objects while the copy ran as a spawned task (the future an
// asynchronous copy handed out, the task's closure, its futures). The
// third row is the same copy as one third-party RDMA transfer
// (core.Config.HWCopies), whose completion is the copy record's event
// too. The bound is the measured count plus one.
func TestAllocGateMemCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const maxPerCopy = 1
	for _, row := range []struct{ ranged, hw bool }{{false, false}, {true, false}, {false, true}} {
		ctrl := core.Config{HWCopies: row.hw}
		per, _ := memCopiesWith(t, ctrl, 64<<10, false, row.ranged, 50, 500)
		if per > maxPerCopy {
			t.Errorf("cross-node 64 KiB memory_copy (ranged %v, hw %v) allocates %.2f objects, want <= %d", row.ranged, row.hw, per, maxPerCopy)
			explainAllocs(t, 500, func() { memCopiesWith(t, ctrl, 64<<10, false, row.ranged, 50, 500) }) // set-up's stacks among them
		}
		t.Logf("cross-node 64 KiB memory_copy (ranged %v, hw %v): %.2f allocs", row.ranged, row.hw, per)
	}
}

// TestEventGateNullCall pins the kernel events one unloaded cross-node
// Call costs: 10 frame deliveries, 6 Controller service times and 3
// application-task wakes — the echo server's two and the one that ends
// the Call (the ledger is in docs/PERFORMANCE.md). The count is a
// property of the program, not of the host, so the gate is an equality
// and runs under -race too; it was 47 while Controllers and libfractos'
// receive demultiplexers were tasks woken once per frame that found
// them idle, 32 while Call woke its caller after each of its own
// syscalls, and 29 while every Call created its reply Request and
// dropped it afterwards: the six events gone are the request_create's
// and the cap_drop's syscall frames, their two services at the caller's
// Controller and their two completion frames; and 23 while the owner
// acknowledged the caller's invocation, which the reply now answers: the
// CtrlAck's delivery and its service; and 21 while the reply took a
// window credit, which the caller's DeliverDone gave back: that frame's
// delivery and its service.
func TestEventGateNullCall(t *testing.T) {
	const (
		short, long   = 100, 300
		eventsPerCall = 19
	)
	_, e1 := nullCalls(t, fabric.Faults{}, 0, short)
	_, e2 := nullCalls(t, fabric.Faults{}, 0, long)
	if got := e2 - e1; got != eventsPerCall*(long-short) {
		t.Errorf("%d more null cross-node Calls cost %d more kernel events (%.2f each), want exactly %d each",
			long-short, got, float64(got)/(long-short), eventsPerCall)
	}
}

// served is what the Controllers have served, by syscall group, and the
// messages the fabric has carried (RDMA transfers aside), once the last
// acknowledgements have drained.
func served(tk *sim.Task, d *testbed.Deployment) (m core.Metrics, sends int64) {
	tk.Sleep(testbed.USec(100))
	for _, c := range d.Cl.Ctrls {
		cm := c.Metrics()
		m.MemOps, m.Copies, m.ReqCreates = m.MemOps+cm.MemOps, m.Copies+cm.Copies, m.ReqCreates+cm.ReqCreates
		m.Invokes, m.CapOps = m.Invokes+cm.Invokes, m.CapOps+cm.CapOps
	}
	st := d.Net().Stats()
	return m, st.ControlMsgs + st.DataMsgs - st.RDMAOps
}

// faceVerifies runs n face-verification requests back to back on the
// paper's 4-node deployment, checks every verdict, and returns what the
// requests after the first warm of them cost: the syscalls the
// Controllers served, by group, and the fabric's sends — and the kernel
// events of the whole run, set-up included.
func faceVerifies(t *testing.T, warm, n int) (m core.Metrics, sends int64, events uint64) {
	e0 := sim.TotalEvents()
	fv := &stacks.FaceVerify{Cfg: faceverify.Config{Batch: 8, Files: 2, Slots: 1, Seed: 5}}
	testbed.RunT(t, testbed.Spec{Nodes: 4, Seed: 5, Services: []testbed.Service{fv}}, func(tk *sim.Task, d *testbed.Deployment) {
		rng := rand.New(rand.NewSource(5))
		var m0 core.Metrics
		var s0 int64
		for i := 0; i < n; i++ {
			if i == warm {
				m0, s0 = served(tk, d)
			}
			r := faceverify.MakeRequest(fv.DB, i%2, 8, rng)
			if out, err := fv.Verify(tk, r); err != nil || !r.CheckResults(out) {
				t.Errorf("request %d: err %v, verdicts %v", i, err, out)
				return
			}
		}
		m, sends = served(tk, d)
		m.MemOps, m.Copies, m.ReqCreates = m.MemOps-m0.MemOps, m.Copies-m0.Copies, m.ReqCreates-m0.ReqCreates
		m.Invokes, m.CapOps, sends = m.Invokes-m0.Invokes, m.CapOps-m0.CapOps, sends-s0
	})
	return m, sends, sim.TotalEvents() - e0
}

// TestEventGateFaceVerify pins what one warm, unloaded face-verification
// request costs, as equalities: 57 kernel events, 24 fabric sends (RDMA
// transfers aside), and 9 syscalls — three memory_copy (probes up, the
// database batch from the SSD into GPU memory, verdicts down) and the
// three invocations of the continuation chain, each handled at both
// ends — with no request_create, no memory_diminish and no capability
// syscall among them: a request in steady state mints nothing (the
// ledger is in docs/PERFORMANCE.md § 3e). It was 96 events, 13 syscalls
// and 40 sends while the block adaptor derived and dropped a view of its
// staging buffer per I/O and the frontend a kernel Request per request,
// 76 events while the block and GPU adaptors' replies each woke their
// task for a completion that only reported a status, and 74 while each
// adaptor served a read or a kernel in a task: a serve-loop wake and a
// spawn at both adaptors, and the wake of the block adaptor's task for
// its memory_copy's completion, and 69 while the copy engine spent an
// event on every chunk's write-out completing. It was 68 events and 30
// sends while each of the request's two cross-node replies (the block
// adaptor's into the GPU continuation, the GPU adaptor's to the
// frontend) was answered with a CtrlAck and a Completion nobody waited
// for: 2 sends and 3 events each — the ack's delivery and service, the
// completion's delivery. It was 62 while the frontend waited for the
// storage read's invocation in a task and then, on a future of its own,
// for the chain's reply, where a CallWith wakes it once: the wake at the
// invocation's completion. It was 61 events and 26 sends while the
// storage read's owner acked its invocation (CtrlAck) and the reply, to a
// Request that was no reply Request, took a window credit the frontend
// handed back (DeliverDone): 2 sends and 4 events — each one's delivery
// and service at the frontend's Controller.
func TestEventGateFaceVerify(t *testing.T) {
	const (
		short, long      = 4, 24
		eventsPerRequest = 57
	)
	_, _, e1 := faceVerifies(t, 1, short)
	m, sends, e2 := faceVerifies(t, 1, long)
	if got := e2 - e1; got != eventsPerRequest*(long-short) {
		t.Errorf("%d more requests cost %d more kernel events (%.2f each), want exactly %d each",
			long-short, got, float64(got)/(long-short), eventsPerRequest)
	}
	if n := int64(long - 1); m.Copies != 3*n || m.Invokes != 6*n || m.MemOps != 0 || m.ReqCreates != 0 || m.CapOps != 0 || sends != 24*n {
		t.Errorf("%d warm requests: %d memory_copy, %d invocations handled, %d memory_create/diminish, %d request_create, %d capability syscalls, %d fabric sends; want %d, %d, 0, 0, 0, %d",
			n, m.Copies, m.Invokes, m.MemOps, m.ReqCreates, m.CapOps, sends, 3*n, 6*n, 24*n)
	}
}

// routedRequests runs n unloaded routed requests back to back on
// TestVirtGateRouted's deployment and returns the kernel events of the
// whole run, set-up included.
func routedRequests(t *testing.T, n int) uint64 {
	e0 := sim.TotalEvents()
	s := &stacks.Routed{Replicas: 2, Policy: "least", Nodes: []int{1}}
	testbed.RunT(t, testbed.Spec{Nodes: 2, Seed: 3, Services: []testbed.Service{s}}, func(tk *sim.Task, d *testbed.Deployment) {
		for i := 0; i < n; i++ {
			if err := s.Do(tk, uint64(i+1), 400*sim.Time(1000)); err != nil {
				t.Error(err)
				return
			}
		}
	})
	return sim.TotalEvents() - e0
}

// TestEventGateRouted pins the kernel events of one warm, unloaded routed
// request as an equality: 15. The replica admits and answers it in kernel
// context, its service time the target of one timer. It was 24 while the
// replica received in a task of its own and handed each admitted request
// to a worker task through a queue: the receiving task's wake and the
// worker's; and 22 while its cross-node reply was answered with a CtrlAck
// and a Completion nobody waited for: their deliveries and the ack's
// service; and 19 while the replica's owner acknowledged the balancer's
// invocation, which the reply now answers: the CtrlAck's delivery and
// its service; and 17 while the reply took a window credit, which the
// balancer's DeliverDone gave back: that frame's delivery and its
// service.
func TestEventGateRouted(t *testing.T) {
	const (
		short, long      = 4, 24
		eventsPerRequest = 15
	)
	e1, e2 := routedRequests(t, short), routedRequests(t, long)
	if got := e2 - e1; got != eventsPerRequest*(long-short) {
		t.Errorf("%d more routed requests cost %d more kernel events (%.2f each), want exactly %d each",
			long-short, got, float64(got)/(long-short), eventsPerRequest)
	}
}

// TestAllocGateFaceVerify pins what one warm face-verification request
// allocates on faceVerifies' deployment. The 1 object left is the
// verdict slice the frontend returns; the ledger is in
// docs/PERFORMANCE.md § 3e. Every descriptor is recycled — the two
// adaptors' deliveries, taken back at Finish, and the replies of the
// frontend's Calls and of its CallWith over the continuation chain — and
// so are the adaptors' records (the block adaptor's I/O, the GPU's
// device job, which keeps its kernel argument list). It was 14 while those were allocated per delivery (a
// descriptor and a closure at each adaptor) and the GPU adaptor grew its
// argument list from nil, 8 while the kernel's name escaped to the heap
// on its way to the device, and 7 while the 3 immediates of the storage
// read (two U64Arg arrays and the list) escaped with the list libfractos
// posted and the GPU job made an argument list per kernel, and 3 while
// the frontend waited for the chain's reply on a future it allocated
// and kept the descriptor. The bound is the count of 1, plus one.
func TestAllocGateFaceVerify(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const (
		warm, n       = 20, 200
		maxPerRequest = 2
	)
	var per float64
	fv := &stacks.FaceVerify{Cfg: faceverify.Config{Batch: 8, Files: 2, Slots: 1, Seed: 5}}
	testbed.RunT(t, testbed.Spec{Nodes: 4, Seed: 5, Services: []testbed.Service{fv}}, func(tk *sim.Task, d *testbed.Deployment) {
		rng := rand.New(rand.NewSource(5))
		reqs := []*faceverify.Request{faceverify.MakeRequest(fv.DB, 0, 8, rng), faceverify.MakeRequest(fv.DB, 1, 8, rng)}
		verify := func(from, n int) bool {
			for i := from; i < from+n; i++ {
				r := reqs[i%2]
				if out, err := fv.Verify(tk, r); err != nil || !r.CheckResults(out) {
					t.Errorf("request %d: err %v, verdicts %v", i, err, out)
					return false
				}
			}
			return true
		}
		if !verify(0, warm) {
			return
		}
		before := mallocs()
		if verify(warm, n) {
			if per = float64(mallocs()-before) / n; per > maxPerRequest {
				explainAllocs(t, n, func() { verify(warm, n) })
			}
		}
	})
	if per > maxPerRequest {
		t.Errorf("a warm face-verification request allocates %.2f objects, want <= %d", per, maxPerRequest)
	}
	t.Logf("warm face-verification request: %.2f allocs", per)
}

// TestArenaFootprintFaceVerify pins the arena bytes a warm
// face-verification deployment has materialized (fabric.Net.ArenaBytes),
// on TestAllocGateFaceVerify's set-up: host memory held to an equality,
// where the benchmark's peak RSS moves with the host. The ledger:
//
//   - GPU adaptor, 69,632 of 64 MiB: the prefix its buffers reach;
//   - NVMe adaptor and FS service, 32,768 of 8 MiB each: the part of one
//     staging buffer that requests, one at a time, touch;
//   - the frontend's 38,920, all of its memory;
//   - the Controllers' bounce buffers, 81,928.
//
// Further requests touch nothing new. The reading was 84,006,928 while
// every kernel took the whole GPU arena, and 16,967,696 while the
// staging pools handed out their top buffer first and the FS took its
// whole arena on the first I/O.
func TestArenaFootprintFaceVerify(t *testing.T) {
	const want = 256_016
	var warm, later int
	fv := &stacks.FaceVerify{Cfg: faceverify.Config{Batch: 8, Files: 2, Slots: 1, Seed: 5}}
	testbed.RunT(t, testbed.Spec{Nodes: 4, Seed: 5, Services: []testbed.Service{fv}}, func(tk *sim.Task, d *testbed.Deployment) {
		rng := rand.New(rand.NewSource(5))
		reqs := []*faceverify.Request{faceverify.MakeRequest(fv.DB, 0, 8, rng), faceverify.MakeRequest(fv.DB, 1, 8, rng)}
		for i := 0; i < 40; i++ {
			if i == 20 {
				warm = d.Net().ArenaBytes()
			}
			r := reqs[i%2]
			if out, err := fv.Verify(tk, r); err != nil || !r.CheckResults(out) {
				t.Errorf("request %d: err %v, verdicts %v", i, err, out)
				return
			}
		}
		later = d.Net().ArenaBytes()
	})
	if warm != want || later != want {
		t.Errorf("materialized arena bytes = %d warm, %d 20 requests later; want %d", warm, later, want)
	}
}

// BenchmarkFaceVerifySetup deploys the face-verification app at the
// benchmark's geometry (4 nodes, batch 32, 64 files, 4 slots) and builds
// its 128 requests: the host cost the benchmark reports as setup_s,
// without the benchmark module. Profile it with
// go test -run '^$' -bench FaceVerifySetup -cpuprofile cpu.out .
func BenchmarkFaceVerifySetup(b *testing.B) {
	const batch, files = 32, 64
	for i := 0; i < b.N; i++ {
		fv := &stacks.FaceVerify{Cfg: faceverify.Config{Batch: batch, Files: files, Slots: 4, Seed: 2}}
		testbed.RunT(b, testbed.Spec{Nodes: 4, Placement: core.CtrlOnCPU, Seed: 1, Services: []testbed.Service{fv}}, func(tk *sim.Task, d *testbed.Deployment) {
			rng := testbed.Rand(1)
			for range 2 {
				for file := range files {
					faceverify.MakeRequest(fv.DB, file, batch, rng)
				}
			}
		})
	}
}

// TestEventGateMemCopy pins the kernel events of one unloaded
// cross-node memory_copy, push or pull: 9 for the copy as a whole — the
// syscall's frame and its service, the validation round trip's two
// frames and two services, the last write-out's completion, the
// completion's frame, the caller's wake — and 2 per 16 KiB chunk: its
// processing time, which includes any wait for its bounce buffer to
// drain, and its read's completion. No event stands between two of
// those: the copy is a record stepped by what it waits for
// (docs/PERFORMANCE.md § 3e). As a task it cost 15, 30/27 and 330/267,
// and 8 + 3 per chunk while every write's completion was an event.
func TestEventGateMemCopy(t *testing.T) {
	const short, long = 10, 30
	for _, tc := range []struct {
		name          string
		size          int
		eventsPerCopy uint64
	}{
		{"4 KiB", 4 << 10, 9 + 2*1},
		{"64 KiB", 64 << 10, 9 + 2*4},
		{"1 MiB", 1 << 20, 9 + 2*64},
	} {
		for _, mode := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			pull, ranged := mode[0], mode[1]
			_, e1 := memCopies(t, tc.size, pull, ranged, 0, short)
			_, e2 := memCopies(t, tc.size, pull, ranged, 0, long)
			if got := e2 - e1; got != tc.eventsPerCopy*(long-short) {
				t.Errorf("%s, pull %v, ranged %v: %d more copies cost %d more kernel events (%.2f each), want exactly %d each",
					tc.name, pull, ranged, long-short, got, float64(got)/(long-short), tc.eventsPerCopy)
			}
		}
	}
}

// TestVirtGateNullCall pins the virtual clock of the same exchange, so
// that no round trip comes back onto a Call's critical path unnoticed.
// A warm cross-node null Call, one issued as the last returns, takes
// 16.214 µs, and is four syscalls — the caller's and the echo server's
// request_invoke, each forwarded, and neither a request_create nor a
// capability syscall — in 10 fabric sends: the reply takes no window
// credit, so the caller sends no DeliverDone for it, and the next Call
// no longer waits behind that frame's service (0.578 µs, 16.792 µs
// before); the reply answers the caller's invocation, so its
// owner sends no CtrlAck, and the caller's Completion goes out in the
// reply's instant, just ahead of the Deliver on the same local link,
// which it delays by the 1 ns its 7 bytes take. From the 7th call on,
// the Controllers' RPC tokens take a second varint byte, and so each of
// the call's two CtrlInvokes takes 1 ns more to serialise. Virtual time
// is exact, so the gate is an equality and runs under -race too.
func TestVirtGateNullCall(t *testing.T) {
	const (
		calls   = 100
		perCall = sim.Time(16214) // ns
		widens  = 7               // the first call with two-byte tokens
	)
	testbed.RunT(t, testbed.Spec{Nodes: 2, Seed: 5}, func(tk *sim.Task, d *testbed.Deployment) {
		cli, req := deployEchoClient(t, tk, d)
		if cli == nil {
			return
		}
		call := func(i int) sim.Time {
			start := tk.Now()
			if _, err := cli.Call(tk, req, []wire.ImmArg{proc.U64Arg(0, uint64(i))}, nil, replySlot); err != nil {
				t.Error(err)
			}
			return tk.Now() - start
		}
		call(0) // creates the reply Request
		m0, s0 := served(tk, d)
		call(1)
		for i := 2; i < 2+calls; i++ {
			want := perCall
			if i >= widens {
				want += 2
			}
			if took := call(i); took != want {
				t.Errorf("call %d took %v, want %v", i, took, want)
				return
			}
		}
		m1, s1 := served(tk, d)
		if n := int64(calls + 1); s1-s0 != 10*n || m1.ReqCreates != m0.ReqCreates || m1.CapOps != m0.CapOps || m1.Invokes-m0.Invokes != 4*n {
			t.Errorf("%d warm calls: %d fabric sends, %d request_create, %d capability syscalls, %d invocations handled; want %d, 0, 0, %d",
				n, s1-s0, m1.ReqCreates-m0.ReqCreates, m1.CapOps-m0.CapOps, m1.Invokes-m0.Invokes, 10*n, 4*n)
		}
	})
}

// TestVirtGateMemCopy pins the virtual clock of one unloaded cross-node
// memory_copy, push and pull, of 4 KiB, 64 KiB and 1 MiB: each copy
// issued as the last returns takes exactly the pinned time. A ranged copy
// — the same bytes out of and into the middle of larger objects, by one
// syscall with no view derived for it — takes exactly as long as a whole
// one: its offsets and length make the syscall frame one or two bytes
// longer, which serialise in under a nanosecond.
// Virtual time is exact, so the gate is an equality and runs under -race
// too.
func TestVirtGateMemCopy(t *testing.T) {
	const copies = 10
	for _, tc := range []struct {
		size       int
		push, pull sim.Time // ns
	}{
		{4 << 10, 16843, 17693},
		{64 << 10, 68044, 80924},
		{1 << 20, 854464, 1107944},
	} {
		for _, pull := range []bool{false, true} {
			for _, ranged := range []bool{false, true} {
				want := tc.push
				if pull {
					want = tc.pull
				}
				took := copyTimes(t, tc.size, pull, ranged, copies)
				for i, d := range took {
					if d != want {
						t.Errorf("%d B, pull %v, ranged %v: copy %d took %v, want %v", tc.size, pull, ranged, i, d, want)
						break
					}
				}
			}
		}
	}
}

// copyTimes is memCopies' deployment timing each of n cross-node copies
// after one warm-up copy.
func copyTimes(t *testing.T, size int, pull, ranged bool, n int) (took []sim.Time) {
	testbed.RunT(t, testbed.Spec{Nodes: 2, Seed: 5}, func(tk *sim.Task, d *testbed.Deployment) {
		objSize, srcOff, dstOff := size, uint64(0), uint64(0)
		if ranged {
			objSize, srcOff, dstOff = size+96, 31, 64
		}
		local, remote := d.Attach(0, "local", objSize), d.Attach(1, "remote", objSize)
		lmem, _, err := local.AllocMemory(tk, objSize, cap.MemRights)
		if err != nil {
			t.Error(err)
			return
		}
		rmem, _, err := remote.AllocMemory(tk, objSize, cap.MemRights)
		if err != nil {
			t.Error(err)
			return
		}
		if rmem, err = proc.GrantCap(remote, rmem, local); err != nil {
			t.Error(err)
			return
		}
		src, dst := lmem, rmem
		if pull {
			src, dst = rmem, lmem
		}
		for i := 0; i <= n; i++ {
			start := tk.Now()
			if ranged {
				err = local.MemoryCopyRange(tk, src, srcOff, dst, dstOff, uint64(size))
			} else {
				err = local.MemoryCopy(tk, src, dst)
			}
			if err != nil {
				t.Error(err)
				return
			}
			if i > 0 {
				took = append(took, tk.Now()-start)
			}
		}
	})
	return took
}

// TestVirtGateFaceVerify pins the virtual clock of a warm, unloaded
// face-verification request on faceVerifies' deployment, as equalities.
// The two batch files alternate: a request for the first finds the SSD's
// read-ahead window past the second and misses it, one for the second
// hits the window the first armed. Device service is most of it — the
// GPU kernel and the SSD read — and the rest is the OS layer's fixed cost
// per request (docs/PERFORMANCE.md § 3e), which this gate holds. Both
// were 0.577 µs longer while the frontend handed the reply's window
// credit back: its Controller served that DeliverDone (0.580 µs) just
// ahead of the verdict download's memory_copy. Of the 3 ns the change
// adds back, 1 is the reply Request the invocation declares (a byte more
// on the frontend's local link) and 2 are the reply's Deliver, whose tag
// carries wire.ReplyTag (a 10-byte varint where it had 5) and which now
// follows the invocation's Completion on the same link.
func TestVirtGateFaceVerify(t *testing.T) {
	const (
		warm, n   = 4, 20
		miss, hit = sim.Time(213221), sim.Time(156221) // ns
	)
	fv := &stacks.FaceVerify{Cfg: faceverify.Config{Batch: 8, Files: 2, Slots: 1, Seed: 5}}
	testbed.RunT(t, testbed.Spec{Nodes: 4, Seed: 5, Services: []testbed.Service{fv}}, func(tk *sim.Task, d *testbed.Deployment) {
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < warm+n; i++ {
			r := faceverify.MakeRequest(fv.DB, i%2, 8, rng)
			start := tk.Now()
			if out, err := fv.Verify(tk, r); err != nil || !r.CheckResults(out) {
				t.Errorf("request %d: err %v, verdicts %v", i, err, out)
				return
			}
			took, want := tk.Now()-start, miss
			if i%2 == 1 {
				want = hit
			}
			if i >= warm && took != want {
				t.Errorf("request %d (batch file %d) took %v, want %v", i, i%2, took, want)
				return
			}
		}
	})
}

// TestVirtGateRouted pins the virtual clock of one unloaded routed
// request: through the balancer to one of two replicas on node 1
// (policy least) and back, with 400 µs of service. The first request
// resolves the service's members at the registry; the gated ones reuse
// the cached set, so what they take beyond the service time is a Call's
// fixed cost; from the 6th on, 2 ns more: the Controllers' RPC tokens,
// and with them the request's two CtrlInvokes, outgrow one varint byte.
// It was 1 ns less while the replica's owner acknowledged the balancer's
// invocation: the balancer's Completion now goes out with the reply,
// ahead of its Deliver on the same local link; and 576 ns more while the
// reply took a window credit: the next request waited behind the
// service of the balancer's DeliverDone for the last reply. Virtual time
// is exact, so the gate is an equality.
func TestVirtGateRouted(t *testing.T) {
	const (
		calls   = 20
		service = 400 * sim.Time(1000)
		perCall = sim.Time(416237) // ns
		widens  = 6                // the first request with two-byte tokens
	)
	s := &stacks.Routed{Replicas: 2, Policy: "least", Nodes: []int{1}}
	testbed.RunT(t, testbed.Spec{Nodes: 2, Seed: 3, Services: []testbed.Service{s}}, func(tk *sim.Task, d *testbed.Deployment) {
		for i := 0; i <= calls; i++ {
			start := tk.Now()
			if err := s.Do(tk, uint64(i+1), service); err != nil {
				t.Error(err)
				return
			}
			want := perCall
			if i >= widens {
				want += 2
			}
			if took := tk.Now() - start; i > 0 && took != want {
				t.Errorf("routed request %d took %v, want %v", i, took, want)
				return
			}
		}
	})
}

// lossyCalls runs 4 closed-loop clients of cross-node null Calls
// against one echo server (the invoke-lossy workload in miniature) on a
// fabric dropping the given share of cross-node frames.
func lossyCalls(t *testing.T, drop float64, perClient int) (p99 sim.Time, retx, aborted, dropped int64) {
	const clients = 4
	spec := testbed.Spec{Nodes: 2, Seed: 5, Chaos: fabric.Faults{Drop: drop, Seed: 17}}
	testbed.RunT(t, spec, func(tk *sim.Task, d *testbed.Deployment) {
		srv, root := deployEcho(t, tk, d)
		if srv == nil {
			return
		}
		var err error
		clis, reqs := make([]*proc.Process, clients), make([]proc.Cap, clients)
		for i := range clis {
			clis[i] = d.Attach(0, "client", 0)
			if reqs[i], err = proc.GrantCap(srv, root, clis[i]); err != nil {
				t.Error(err)
				return
			}
		}
		st := load.Closed{Clients: clients, PerClient: perClient}.Run(tk,
			func(ct *sim.Task, c, seq int) error {
				id := uint64(c*perClient+seq) + 1
				dv, err := clis[c].Call(ct, reqs[c], []wire.ImmArg{proc.U64Arg(0, id)}, nil, replySlot)
				if err == nil && dv.U64(0) != id {
					t.Errorf("client %d call %d: echoed %d", c, seq, dv.U64(0))
				}
				return err
			})
		if st.Errors != 0 {
			t.Errorf("%d of %d calls failed at %.0f %% loss", st.Errors, clients*perClient, 100*drop)
		}
		p99 = st.Hist.P99()
		for _, c := range d.Cl.Ctrls {
			m := c.Metrics()
			retx, aborted = retx+m.Retransmits, aborted+m.RPCAborted
		}
		dropped = d.Net().FaultStats().Dropped
	})
	return p99, retx, aborted, dropped
}

// TestVirtGateLossyCall is the virtual-clock gate of the retransmission
// timer: at 1 % frame loss the p99 of a null Call stays within 1.5× of
// the fault-free p99, with no resend the fabric did not cause and
// nothing aborted. A lost frame costs one timeout, 2·SRTT ≈ 15 µs on
// this path (TestVirtGateLostFrame), so the p99 reads 56.32 µs against
// 40.96 µs fault-free, 1.375×; it read 2× under a 40 µs timeout floor
// and 100× while the timer was a constant 5 ms. Virtual time is exact
// per seed, so the gate runs under -race too.
func TestVirtGateLossyCall(t *testing.T) {
	const perClient = 2500
	clean, _, _, _ := lossyCalls(t, 0, perClient)
	lossy, retx, aborted, dropped := lossyCalls(t, 0.01, perClient)
	t.Logf("p99 %v fault-free, %v at 1 %% loss; %d frames dropped, %d retransmits", clean, lossy, dropped, retx)
	if 2*lossy > 3*clean {
		t.Errorf("p99 at 1 %% loss = %v, want <= 1.5x the fault-free %v", lossy, clean)
	}
	if dropped == 0 || 100*retx > 105*dropped {
		t.Errorf("%d retransmits for %d dropped frames, want <= 1.05x (and > 0 drops)", retx, dropped)
	}
	if aborted != 0 {
		t.Errorf("%d calls aborted under 1 %% loss", aborted)
	}
}

// TestVirtGateLostFrame is the virtual-clock gate of one loss on a warm,
// unloaded path: a null Call whose CtrlInvoke is lost once returns
// exactly the retransmission timeout later than a clean one, because
// the resend retraces the clean call's path that much later on an
// otherwise idle wire. The timeout is derived from the estimator's
// state. Node 0's Controller samples each call's CtrlInvoke → CtrlAck
// round trip: 7.632 µs, 4.986 µs to the peer's handler and 2.646 µs
// back, once RPC tokens take a second varint byte
// (TestVirtGateNullCall), and 1 ns less for the first 7 calls. The
// first sample sets SRTT = 7.631 µs and RTTVAR = 3.815 µs; a 1 ns
// deviation is below SRTT's 1/8 step, so SRTT stays at 7.631 µs, and
// RTTVAR decays in integer quarters to 4 ns, where (1 − 4)/4 truncates
// to 0. So SRTT + 4·RTTVAR = 7.647 µs, under 2·SRTT, and the timeout is
// 2·SRTT = 15.262 µs. Under the 40 µs floor this gate read 40 µs.
// Virtual time is exact, so the gate is an equality and runs under
// -race too.
func TestVirtGateLostFrame(t *testing.T) {
	const (
		warm = 100
		srtt = sim.Time(7631) // ns
	)
	testbed.RunT(t, testbed.Spec{Nodes: 2, Seed: 5}, func(tk *sim.Task, d *testbed.Deployment) {
		// A lossless fault layer: the Controllers arm their timers, and
		// only the link cut below loses a frame.
		d.Net().InstallFaults(fabric.Faults{})
		cli, req := deployEchoClient(t, tk, d)
		if cli == nil {
			return
		}
		call := func(i int) sim.Time {
			start := tk.Now()
			if _, err := cli.Call(tk, req, []wire.ImmArg{proc.U64Arg(0, uint64(i))}, nil, replySlot); err != nil {
				t.Error(err)
			}
			return tk.Now() - start
		}
		for i := 0; i < warm; i++ {
			call(i)
		}
		clean := call(warm)
		// Cut node 1's port until the first frame it loses, the call's
		// CtrlInvoke.
		var lost []wire.Type
		d.Net().SetTrace(func(ev fabric.TraceEvent) {
			if ev.Lost {
				lost = append(lost, ev.Type)
				d.Net().SetLink(1, true)
			}
		})
		d.Net().SetLink(1, false)
		late := call(warm + 1)
		d.Net().SetTrace(nil)
		if len(lost) != 1 || lost[0] != wire.TCtrlInvoke {
			t.Errorf("frames lost: %v, want one CtrlInvoke", lost)
			return
		}
		var retx int64
		for _, c := range d.Cl.Ctrls {
			retx += c.Metrics().Retransmits
		}
		if late-clean != 2*srtt || retx != 1 {
			t.Errorf("a call that lost its CtrlInvoke took %v, %v more than a clean one, after %d retransmits; want 2·SRTT = %v more, after 1",
				late, late-clean, retx, 2*srtt)
		}
	})
}

// deployReplica starts a routed replica on node 1 serving each request
// for the time service gives it, and a client on node 0 holding its root
// Request. cli is nil if set-up failed.
func deployReplica(t *testing.T, tk *sim.Task, d *testbed.Deployment, service func(*proc.Delivery) sim.Time) (r *route.Replica, cli *proc.Process, req proc.Cap) {
	r = &route.Replica{P: d.Attach(1, "replica", 0), Service: service}
	if err := r.Start(tk); err != nil {
		t.Error(err)
		return r, nil, req
	}
	cli = d.Attach(0, "client", 0)
	req, err := proc.GrantCap(r.P, r.Root, cli)
	if err != nil {
		t.Error(err)
		return r, nil, req
	}
	return r, cli, req
}

// callReplica is one Call of a replica's root Request that must be
// answered OK.
func callReplica(t *testing.T, ct *sim.Task, cli *proc.Process, req proc.Cap, imms []wire.ImmArg) {
	if dv, err := cli.Call(ct, req, imms, nil, route.WorkSlotCont); err != nil || dv.Status() != wire.StatusOK {
		t.Errorf("routed call: %v, %v", dv, err)
	}
}

// TestVirtGateReplica pins a routed replica's iteration to its service
// time: two requests queued at a replica, each served in s, are answered
// exactly s apart. Reply posts its invocation and returns, so the
// replica takes the next request at once; it was s + 9.6 µs while Reply
// waited for the completion of the answer's cross-node round trip
// (replica → its Controller → the caller's → ack → back), which only
// reports a status.
func TestVirtGateReplica(t *testing.T) {
	const s = 100 * sim.Time(1000)
	testbed.RunT(t, testbed.Spec{Nodes: 2, Seed: 5}, func(tk *sim.Task, d *testbed.Deployment) {
		r, cli, req := deployReplica(t, tk, d, func(*proc.Delivery) sim.Time { return s })
		if cli == nil {
			return
		}
		var posted []sim.Time
		d.Net().SetTrace(func(e fabric.TraceEvent) {
			if e.From == r.P.Endpoint() && e.Type == wire.TReqInvoke {
				posted = append(posted, e.At)
			}
		})
		var wg sim.WaitGroup
		wg.Add(2)
		for range 2 {
			d.Spawn("caller", func(ct *sim.Task) {
				defer wg.Done()
				callReplica(t, ct, cli, req, nil)
			})
		}
		wg.Wait(tk)
		if len(posted) != 2 || posted[1]-posted[0] != s {
			t.Errorf("replies posted at %v, want two %v apart", posted, s)
		}
	})
}

// TestAllocGateReplicaReply pins a routed replica's reply at zero
// allocations: its status and depth immediates live in the replica, and
// Reply builds the invocation in the Process's own message. Each round
// queues a burst at the replica behind a first request that is served
// for long enough for the rest to arrive; the replica then serves them in
// one event, one after another, so what is allocated between one
// request's Service call and the next one's is the reply's, the
// descriptor's recycling and the replica's bookkeeping. (The second
// request's gap also spans the burst's admissions and is not counted.) A
// burst is the replica's admission bound (16), so none is shed. Two
// rounds warm the pools and the third is measured. It was 3 objects per
// reply — the immediate list and its two 8-byte arrays — while the
// replica built its immediates on the heap.
func TestAllocGateReplicaReply(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const burst = 16
	var allocs, gaps uint64
	testbed.RunT(t, testbed.Spec{Nodes: 2, Seed: 5}, func(tk *sim.Task, d *testbed.Deployment) {
		var last uint64 // mallocs() at the last Service call
		measure := false
		_, cli, req := deployReplica(t, tk, d, func(dv *proc.Delivery) sim.Time {
			if dv.U64(8) == 1 { // a round's first: the rest arrive meanwhile
				last = mallocs()
				return testbed.USec(200)
			}
			if dv.U64(8) == 3 && measure {
				allocs += mallocs() - last
				gaps++
			}
			last = mallocs()
			return 0
		})
		if cli == nil {
			return
		}
		round := func() {
			var wg sim.WaitGroup
			wg.Add(burst)
			for i := range burst {
				d.Spawn("caller", func(ct *sim.Task) {
					defer wg.Done()
					if i > 0 {
						ct.Sleep(testbed.USec(10))
					}
					callReplica(t, ct, cli, req, []wire.ImmArg{proc.U64Arg(8, uint64(min(i+1, 3)))})
				})
			}
			wg.Wait(tk)
		}
		for r := range 3 {
			measure = r == 2
			round()
		}
		if measure = false; allocs > 0 {
			explainAllocs(t, burst, round) // the whole round's, callers' included
		}
	})
	if gaps != burst-2 {
		t.Fatalf("measured %d replies, want %d", gaps, burst-2)
	}
	if per := float64(allocs) / float64(gaps); per > 0 {
		t.Errorf("a routed replica's reply allocates %.2f objects, want 0", per)
	}
}

// TestAllocGateImmediates pins the copy libfractos makes of a caller's
// immediates: a warm Invoke, Delivery.Reply, Derive and Call, each passed
// a literal list of two U64Args, allocate exactly what the same call
// does with nil immediates, to within the 0.01 objects a call of stray
// runtime allocations that either side can catch. Every entry point
// reads the list before it returns, so the list and its 8-byte arrays
// stay on the caller's stack; each cost 3 objects while libfractos posted
// the caller's list itself. The derived Request's parent presets bytes
// past the two, so the owner's copy of its immediates is the same size
// either way.
func TestAllocGateImmediates(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const warm, n, slack = 50, 2000, 0.01
	testbed.RunT(t, testbed.Spec{Nodes: 2, Seed: 5}, func(tk *sim.Task, d *testbed.Deployment) {
		srv, cli := d.Attach(1, "provider", 0), d.Attach(0, "caller", 0)
		replyTwo := false
		srv.Handle(func(dv *proc.Delivery) {
			if replyTwo {
				_ = dv.Reply(0, []wire.ImmArg{proc.U64Arg(0, dv.Seq), proc.U64Arg(8, dv.Tag)}, nil)
			} else {
				_ = dv.Reply(0, nil, nil)
			}
			dv.Finish()
		})
		root, err := srv.RequestCreate(tk, echoTag, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		req, err := proc.GrantCap(srv, root, cli)
		if err != nil {
			t.Error(err)
			return
		}
		parent, err := cli.RequestCreate(tk, echoTag, []wire.ImmArg{proc.BytesArg(16, make([]byte, 16))}, nil)
		if err != nil {
			t.Error(err)
			return
		}
		for _, op := range []struct {
			name string
			run  func(two bool) error
		}{
			{"Invoke", func(two bool) error {
				if two {
					return cli.Invoke(tk, req, []wire.ImmArg{proc.U64Arg(0, 1), proc.U64Arg(8, 2)}, nil)
				}
				return cli.Invoke(tk, req, nil, nil)
			}},
			{"Delivery.Reply", func(two bool) error {
				replyTwo = two
				_, err := cli.Call(tk, req, nil, nil, 0)
				return err
			}},
			{"Derive", func(two bool) error {
				var c proc.Cap
				var err error
				if two {
					c, err = cli.Derive(tk, parent, []wire.ImmArg{proc.U64Arg(0, 1), proc.U64Arg(8, 2)}, nil)
				} else {
					c, err = cli.Derive(tk, parent, nil, nil)
				}
				if err != nil {
					return err
				}
				return cli.Revoke(tk, c)
			}},
			{"Call", func(two bool) error {
				var err error
				if two {
					_, err = cli.Call(tk, req, []wire.ImmArg{proc.U64Arg(0, 1), proc.U64Arg(8, 2)}, nil, 0)
				} else {
					_, err = cli.Call(tk, req, nil, nil, 0)
				}
				return err
			}},
		} {
			for range warm {
				_, _ = op.run(false), op.run(true)
			}
			var per [2]float64
			for i, two := range []bool{false, true} {
				before := mallocs()
				for range n {
					if err := op.run(two); err != nil {
						t.Errorf("%s: %v", op.name, err)
						return
					}
				}
				per[i] = float64(mallocs()-before) / n
			}
			if per[1] > per[0]+slack {
				t.Errorf("a warm %s allocates %.4f objects with two immediates, %.4f with none; want the same", op.name, per[1], per[0])
				explainAllocs(t, n, func() {
					for range n {
						_ = op.run(true)
					}
				})
			}
			t.Logf("warm %s: %.4f allocs with two immediates, %.4f with none", op.name, per[1], per[0])
		}
	})
}

// TestAllocGateRouted pins a warm, unloaded routed request on
// routedRequests' deployment — Balancer.Call, the replica's admission and
// service timer, its reply — at zero allocations, give or take the 0.01
// objects a request of stray runtime allocations. Its id is 0, which asks
// for no at-most-once bookkeeping: a replica's log of the ids it served
// grows with every one, amortised (route-open's 0.02 objects a request).
// It was 3 objects (the caller's immediate list and its two U64Arg
// arrays) while libfractos posted the caller's list itself.
func TestAllocGateRouted(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const warm, n, slack = 20, 1000, 0.01
	var per float64
	s := &stacks.Routed{Replicas: 2, Policy: "least", Nodes: []int{1}}
	testbed.RunT(t, testbed.Spec{Nodes: 2, Seed: 3, Services: []testbed.Service{s}}, func(tk *sim.Task, d *testbed.Deployment) {
		do := func(n int) bool {
			for range n {
				if err := s.Do(tk, 0, 400*sim.Time(1000)); err != nil {
					t.Error(err)
					return false
				}
			}
			return true
		}
		if !do(warm) {
			return
		}
		before := mallocs()
		if do(n) {
			if per = float64(mallocs()-before) / n; per > slack {
				explainAllocs(t, n, func() { do(n) })
			}
		}
	})
	if per > slack {
		t.Errorf("a warm routed request allocates %.3f objects, want 0", per)
	}
}
