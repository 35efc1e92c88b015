// Package repro's tests are the simulator's gates: what one message, one
// cross-node Call and one memory_copy may cost in heap objects
// (TestAllocGate*), kernel events (TestEventGate*) and virtual time
// (TestVirtGate*). The counts are properties of the program, so the
// event and virtual-clock gates are equalities; the ledgers behind the
// constants are in docs/PERFORMANCE.md. How fast the simulator runs is
// measured by the repository's benchmark (bash benchmark/run.sh), the
// paper's tables are regenerated by cmd/fractos-bench and gated in
// internal/exp, and the capability engine's benchmarks are in
// internal/cap.
package main

import (
	"math/rand"
	"runtime"
	"testing"

	"fractos/internal/app/faceverify"
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

// TestAllocGateKernelDispatch pins the zero-alloc property the
// allocfree analyzer enforces statically on the //fractos:hotpath
// kernel functions: steady-state event dispatch — After(0) chains over
// a warmed event pool and run-queue ring — must not allocate per
// event. The only tolerated allocations are the one deferred
// flush closure each Run call makes (amortized over every event of
// the run) plus measurement noise.
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
		if per := testing.AllocsPerRun(100, func() {
			w.Reset()
			wire.MarshalTo(&w, m)
		}); per > 0 {
			t.Errorf("MarshalTo of a %T into a reused Writer allocates %.1f objects/op, want 0", m, per)
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
	cl := core.NewCluster(core.ClusterConfig{Nodes: 2, Placement: core.CtrlShared, Seed: 31})
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
	if per := testing.AllocsPerRun(1000, func() {
		n, st := ctrl.Validate(ref, cap.Read)
		if n == nil || st != wire.StatusOK {
			t.Fatal("validate fast path missed inside gate")
		}
		validateSink = n
	}); per > 0 {
		t.Errorf("Controller.Validate allocates %.2f objects/op at %d live caps, want 0", per, soak)
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
		var per float64
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
			per = float64(mallocs()-before) / msgs
		})
		k.Run()
		k.Shutdown()
		if c.handler && rx.tokens == 0 {
			t.Errorf("%s: the handler decoded nothing", c.name)
		}
		if per > c.max+0.01 {
			t.Errorf("Net.Send of a %s allocates %.2f objects/message, want <= %.0f", c.name, per, c.max)
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
	var resolved, parked float64
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
		before := mallocs()
		loop(rounds, false)
		mid := mallocs()
		loop(rounds, true)
		resolved = float64(mid-before) / rounds
		parked = float64(mallocs()-mid) / rounds
	})
	k.Run()
	k.Shutdown()
	if resolved > 0.01 {
		t.Errorf("resolve-then-wait allocates %.2f objects/round, want 0", resolved)
	}
	if parked > 0.01 {
		t.Errorf("single-waiter park allocates %.2f objects/round, want 0", parked)
	}
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
// two-node deployment: warm+calls cross-node proc.Calls of a null
// Request, 12 wire messages and 4 syscalls over two Controllers each.
// It returns the objects allocated per call over the last `calls` of
// them and the kernel events of the whole run, set-up included.
func nullCalls(t *testing.T, warm, calls int) (allocsPerCall float64, events uint64) {
	e0 := sim.TotalEvents()
	testbed.RunT(t, testbed.Spec{Nodes: 2, Seed: 5}, func(tk *sim.Task, d *testbed.Deployment) {
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
// nullCalls). The six objects left are the two request_receive
// descriptors (each owns its arguments inline) and the benchmark's own
// immediate arguments at both ends; the ledger is in
// docs/PERFORMANCE.md. The bound is the measured count plus one: this
// workload allocated 113 objects per call before the per-message path
// was made allocation-free, 39 while every frame was decoded into a
// fresh message at send time, and 7 while every Call created a reply
// Request.
func TestAllocGateNullCall(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const maxPerCall = 7
	per, _ := nullCalls(t, 200, 2000)
	if per > maxPerCall {
		t.Errorf("null cross-node Call allocates %.2f objects, want <= %d", per, maxPerCall)
	}
	t.Logf("null cross-node Call: %.2f allocs", per)
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
	e0 := sim.TotalEvents()
	testbed.RunT(t, testbed.Spec{Nodes: 2, Seed: 5}, func(tk *sim.Task, d *testbed.Deployment) {
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
// bound is the measured count plus one.
func TestAllocGateMemCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const maxPerCopy = 1
	for _, ranged := range []bool{false, true} {
		per, _ := memCopies(t, 64<<10, false, ranged, 50, 500)
		if per > maxPerCopy {
			t.Errorf("cross-node 64 KiB memory_copy (ranged %v) allocates %.2f objects, want <= %d", ranged, per, maxPerCopy)
		}
		t.Logf("cross-node 64 KiB memory_copy (ranged %v): %.2f allocs", ranged, per)
	}
}

// TestEventGateNullCall pins the kernel events one unloaded cross-node
// Call costs: 12 frame deliveries, 8 Controller service times and 3
// application-task wakes — the echo server's two and the one that ends
// the Call (the ledger is in docs/PERFORMANCE.md). The count is a
// property of the program, not of the host, so the gate is an equality
// and runs under -race too; it was 47 while Controllers and libfractos'
// receive demultiplexers were tasks woken once per frame that found
// them idle, 32 while Call woke its caller after each of its own
// syscalls, and 29 while every Call created its reply Request and
// dropped it afterwards: the six events gone are the request_create's
// and the cap_drop's syscall frames, their two services at the caller's
// Controller and their two completion frames.
func TestEventGateNullCall(t *testing.T) {
	const (
		short, long   = 100, 300
		eventsPerCall = 23
	)
	_, e1 := nullCalls(t, 0, short)
	_, e2 := nullCalls(t, 0, long)
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
// request costs, as equalities: 74 kernel events, 30 fabric sends (RDMA
// transfers aside), and 9 syscalls — three memory_copy (probes up, the
// database batch from the SSD into GPU memory, verdicts down) and the
// three invocations of the continuation chain, each handled at both
// ends — with no request_create, no memory_diminish and no capability
// syscall among them: a request in steady state mints nothing (the
// ledger is in docs/PERFORMANCE.md § 3e). It was 96 events, 13 syscalls
// and 40 sends while the block adaptor derived and dropped a view of its
// staging buffer per I/O and the frontend a kernel Request per request,
// and 76 events while the block and GPU adaptors' replies each woke
// their task for a completion that only reported a status.
func TestEventGateFaceVerify(t *testing.T) {
	const (
		short, long      = 4, 24
		eventsPerRequest = 74
	)
	_, _, e1 := faceVerifies(t, 1, short)
	m, sends, e2 := faceVerifies(t, 1, long)
	if got := e2 - e1; got != eventsPerRequest*(long-short) {
		t.Errorf("%d more requests cost %d more kernel events (%.2f each), want exactly %d each",
			long-short, got, float64(got)/(long-short), eventsPerRequest)
	}
	if n := int64(long - 1); m.Copies != 3*n || m.Invokes != 6*n || m.MemOps != 0 || m.ReqCreates != 0 || m.CapOps != 0 || sends != 30*n {
		t.Errorf("%d warm requests: %d memory_copy, %d invocations handled, %d memory_create/diminish, %d request_create, %d capability syscalls, %d fabric sends; want %d, %d, 0, 0, 0, %d",
			n, m.Copies, m.Invokes, m.MemOps, m.ReqCreates, m.CapOps, sends, 3*n, 6*n, 30*n)
	}
}

// TestEventGateMemCopy pins the kernel events of one unloaded
// cross-node memory_copy, push or pull: 8 for the copy as a whole — the
// syscall's frame and its service, the validation round trip's two
// frames and two services, the completion's frame, the caller's wake —
// and 3 per 16 KiB chunk: its processing time, its read's completion,
// its write's. No event stands between two of those: the copy is a
// record stepped by what it waits for (docs/PERFORMANCE.md § 3e). As a
// task it cost 15, 30/27 and 330/267.
func TestEventGateMemCopy(t *testing.T) {
	const short, long = 10, 30
	for _, tc := range []struct {
		name          string
		size          int
		eventsPerCopy uint64
	}{
		{"4 KiB", 4 << 10, 8 + 3*1},
		{"64 KiB", 64 << 10, 8 + 3*4},
		{"1 MiB", 1 << 20, 8 + 3*64},
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
// A warm cross-node null Call, one issued as the last returns, takes the
// pre-exchanged round trip of Figure 6 (16.288 µs) plus the service of
// the DeliverDone the previous reply's arrival posted ahead of it, and is
// four syscalls — the caller's and the echo server's request_invoke, each
// forwarded, and neither a request_create nor a capability syscall — in
// 12 fabric sends. Virtual time is exact, so the gate is an equality and
// runs under -race too.
func TestVirtGateNullCall(t *testing.T) {
	const (
		calls   = 100
		perCall = sim.Time(16863) // ns
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
			if took := call(i); took != perCall {
				t.Errorf("call %d took %v, want %v", i, took, perCall)
				return
			}
		}
		m1, s1 := served(tk, d)
		if n := int64(calls + 1); s1-s0 != 12*n || m1.ReqCreates != m0.ReqCreates || m1.CapOps != m0.CapOps || m1.Invokes-m0.Invokes != 4*n {
			t.Errorf("%d warm calls: %d fabric sends, %d request_create, %d capability syscalls, %d invocations handled; want %d, 0, 0, %d",
				n, s1-s0, m1.ReqCreates-m0.ReqCreates, m1.CapOps-m0.CapOps, m1.Invokes-m0.Invokes, 12*n, 4*n)
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
// timer: at 1 % frame loss the p99 of a null Call stays within 3× of the
// fault-free p99 (it was 100× while the timer was a constant 5 ms), with
// no resend the fabric did not cause and nothing aborted. Virtual time
// is exact per seed, so the gate runs under -race too.
func TestVirtGateLossyCall(t *testing.T) {
	const perClient = 2500
	clean, _, _, _ := lossyCalls(t, 0, perClient)
	lossy, retx, aborted, dropped := lossyCalls(t, 0.01, perClient)
	t.Logf("p99 %v fault-free, %v at 1 %% loss; %d frames dropped, %d retransmits", clean, lossy, dropped, retx)
	if lossy > 3*clean {
		t.Errorf("p99 at 1 %% loss = %v, want <= 3x the fault-free %v", lossy, clean)
	}
	if dropped == 0 || 100*retx > 105*dropped {
		t.Errorf("%d retransmits for %d dropped frames, want <= 1.05x (and > 0 drops)", retx, dropped)
	}
	if aborted != 0 {
		t.Errorf("%d calls aborted under 1 %% loss", aborted)
	}
}

// deployReplica starts a routed replica on node 1 serving through h,
// and a client on node 0 holding its root Request. cli is nil if set-up
// failed.
func deployReplica(t *testing.T, tk *sim.Task, d *testbed.Deployment, h route.Handler) (r *route.Replica, cli *proc.Process, req proc.Cap) {
	r = &route.Replica{P: d.Attach(1, "replica", 0), Handler: h}
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
// time: two requests queued at a single-worker replica, each served in
// s, are answered exactly s apart. Reply posts its invocation and
// returns, so the worker takes the next request at once; it was s +
// 9.6 µs while Reply waited for the completion of the answer's
// cross-node round trip (replica → its Controller → the caller's → ack →
// back), which only reports a status.
func TestVirtGateReplica(t *testing.T) {
	const s = 100 * sim.Time(1000)
	testbed.RunT(t, testbed.Spec{Nodes: 2, Seed: 5}, func(tk *sim.Task, d *testbed.Deployment) {
		r, cli, req := deployReplica(t, tk, d, func(ht *sim.Task, _ *proc.Delivery) wire.Status {
			ht.Sleep(s)
			return wire.StatusOK
		})
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
// queues a burst at the replica behind a first request that waits for it
// to arrive; the worker then serves the rest without yielding between one
// handler's return and the next one's call, so what is allocated in
// between is the reply's and the worker's bookkeeping. A burst is the
// replica's admission bound (16), so none is shed. Two rounds warm the
// pools and the third is measured. It was 3 objects per reply — the
// immediate list and its two 8-byte arrays — while the replica built its
// immediates on the heap.
func TestAllocGateReplicaReply(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const burst = 16
	var allocs, gaps uint64
	testbed.RunT(t, testbed.Spec{Nodes: 2, Seed: 5}, func(tk *sim.Task, d *testbed.Deployment) {
		var last uint64 // mallocs() as the last handler returned
		measure := false
		_, cli, req := deployReplica(t, tk, d, func(ht *sim.Task, dv *proc.Delivery) wire.Status {
			if dv.U64(8) == 1 { // a round's first: the rest arrive meanwhile
				ht.Sleep(testbed.USec(200))
			} else if measure {
				allocs += mallocs() - last
				gaps++
			}
			last = mallocs()
			return wire.StatusOK
		})
		if cli == nil {
			return
		}
		for round := range 3 {
			measure = round == 2
			var wg sim.WaitGroup
			wg.Add(burst)
			for i := range burst {
				d.Spawn("caller", func(ct *sim.Task) {
					defer wg.Done()
					if i > 0 {
						ct.Sleep(testbed.USec(10))
					}
					callReplica(t, ct, cli, req, []wire.ImmArg{proc.U64Arg(8, uint64(min(i+1, 2)))})
				})
			}
			wg.Wait(tk)
		}
	})
	if gaps != burst-1 {
		t.Fatalf("measured %d replies, want %d", gaps, burst-1)
	}
	if per := float64(allocs) / float64(gaps); per > 0 {
		t.Errorf("a routed replica's reply allocates %.2f objects, want 0", per)
	}
}
