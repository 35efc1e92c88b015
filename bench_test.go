// Package repro benchmarks regenerate every table and figure of the
// paper's evaluation (§6). The system under test runs on a
// deterministic virtual clock, so wall-clock ns/op measures simulation
// speed, not system performance; the paper-relevant results are
// emitted as custom metrics (vus = virtual microseconds, MB/s, req/s)
// and as the text tables printed by cmd/fractos-bench.
//
// Every benchmark also reports allocs/op (ReportAllocs) and the
// wall-clock simulation throughput in events/sec, so `go test -bench`
// doubles as a regression gate for the simulator's own speed (see
// docs/PERFORMANCE.md for the methodology and benchstat workflow).
package main

import (
	"runtime"
	"testing"

	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/exp"
	"fractos/internal/fabric"
	"fractos/internal/load"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/wire"
)

// marshalSink keeps the allocation-gate encode results live so the
// compiler cannot elide the calls under test.
var marshalSink []byte

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

// TestAllocGateWireMarshal pins the wire codec's allocation contract:
// Marshal performs exactly one allocation (the exact-size buffer), and
// the pooled GetWriter/MarshalTo/Release path performs none at steady
// state.
func TestAllocGateWireMarshal(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m := &wire.Completion{Token: 7, Status: wire.StatusOK, Aux: 42}
	if per := testing.AllocsPerRun(100, func() {
		marshalSink = wire.Marshal(m)
	}); per > 1 {
		t.Errorf("wire.Marshal allocates %.1f objects/op, want <= 1 (the exact-size buffer)", per)
	}
	// Warm the writer pool once so the gate measures steady state.
	wire.GetWriter(wire.SizeOf(m)).Release()
	if per := testing.AllocsPerRun(100, func() {
		w := wire.GetWriter(wire.SizeOf(m))
		wire.MarshalTo(w, m)
		w.Release()
	}); per > 0 {
		t.Errorf("pooled MarshalTo path allocates %.1f objects/op, want 0", per)
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
// the kernel events of the whole run, set-up included.
func memCopies(t *testing.T, size int, pull bool, warm, n int) (allocsPerCopy float64, events uint64) {
	e0 := sim.TotalEvents()
	testbed.RunT(t, testbed.Spec{Nodes: 2, Seed: 5}, func(tk *sim.Task, d *testbed.Deployment) {
		local, remote := d.Attach(0, "local", size), d.Attach(1, "remote", size)
		lmem, lbuf, err := local.AllocMemory(tk, size, cap.MemRights)
		if err != nil {
			t.Error(err)
			return
		}
		rmem, rbuf, err := remote.AllocMemory(tk, size, cap.MemRights)
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
		copies := func(first, n int) {
			for i := first; i < first+n; i++ {
				from[0], from[size-1] = byte(i), byte(i>>8)
				if err := local.MemoryCopy(tk, src, dst); err != nil || to[0] != byte(i) || to[size-1] != byte(i>>8) {
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
// objects while the copy ran as a spawned task (the future
// MemoryCopyAsync hands out, the task's closure, its futures). The
// bound is the measured count plus one.
func TestAllocGateMemCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const maxPerCopy = 1
	per, _ := memCopies(t, 64<<10, false, 50, 500)
	if per > maxPerCopy {
		t.Errorf("cross-node 64 KiB memory_copy allocates %.2f objects, want <= %d", per, maxPerCopy)
	}
	t.Logf("cross-node 64 KiB memory_copy: %.2f allocs", per)
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
		for _, pull := range []bool{false, true} {
			_, e1 := memCopies(t, tc.size, pull, 0, short)
			_, e2 := memCopies(t, tc.size, pull, 0, long)
			if got := e2 - e1; got != tc.eventsPerCopy*(long-short) {
				t.Errorf("%s, pull %v: %d more copies cost %d more kernel events (%.2f each), want exactly %d each",
					tc.name, pull, long-short, got, float64(got)/(long-short), tc.eventsPerCopy)
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
		// What the Controllers served and the fabric carried, once the
		// last acknowledgements have drained.
		counters := func() (m core.Metrics, sends int64) {
			tk.Sleep(testbed.USec(100))
			for _, c := range d.Cl.Ctrls {
				cm := c.Metrics()
				m.ReqCreates, m.CapOps, m.Invokes = m.ReqCreates+cm.ReqCreates, m.CapOps+cm.CapOps, m.Invokes+cm.Invokes
			}
			st := d.Net().Stats()
			return m, st.ControlMsgs + st.DataMsgs
		}
		call(0) // creates the reply Request
		m0, s0 := counters()
		call(1)
		for i := 2; i < 2+calls; i++ {
			if took := call(i); took != perCall {
				t.Errorf("call %d took %v, want %v", i, took, perCall)
				return
			}
		}
		m1, s1 := counters()
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

// runExp drives one experiment through the benchmark loop, reporting
// allocations and the wall-clock event throughput (kernel events
// processed per second of host time) alongside the virtual-time
// metrics. The returned table is from the final iteration.
func runExp(b *testing.B, fn func() *exp.Table) *exp.Table {
	b.Helper()
	b.ReportAllocs()
	var t *exp.Table
	e0 := sim.TotalEvents()
	for i := 0; i < b.N; i++ {
		t = fn()
	}
	if d := b.Elapsed(); d > 0 {
		b.ReportMetric(float64(sim.TotalEvents()-e0)/d.Seconds(), "events/sec")
	}
	return t
}

// reportMetrics forwards an experiment's headline metrics through the
// benchmark framework.
func reportMetrics(b *testing.B, t *exp.Table, metrics map[string]string) {
	b.Helper()
	for key, unit := range metrics {
		v, ok := t.Metrics[key]
		if !ok {
			b.Fatalf("metric %q missing (have %v)", key, t.Metrics)
		}
		b.ReportMetric(v, unit)
	}
}

// BenchmarkTable3NullOp regenerates Table 3 (null-operation latency).
func BenchmarkTable3NullOp(b *testing.B) {
	t := runExp(b, exp.Table3)
	reportMetrics(b, t, map[string]string{
		"table3.null-cpu-us":  "vus-cpu",
		"table3.null-snic-us": "vus-snic",
	})
}

// BenchmarkFigure2Traffic regenerates the Figure 2 traffic analysis.
func BenchmarkFigure2Traffic(b *testing.B) {
	t := runExp(b, exp.Figure2)
	reportMetrics(b, t, map[string]string{
		"fig2.bytes-reduction":   "x-bytes",
		"fig2.datamsg-reduction": "x-datamsgs",
	})
}

// BenchmarkFigure5MemoryCopy regenerates Figure 5 (memory_copy
// throughput vs size).
func BenchmarkFigure5MemoryCopy(b *testing.B) {
	t := runExp(b, exp.Figure5)
	reportMetrics(b, t, map[string]string{
		"fig5.copy1b-cpu-us":     "vus-1B-cpu",
		"fig5.copy256k-cpu-mbps": "MBps-256K",
	})
}

// BenchmarkFigure6Invoke regenerates Figure 6 (RPC latency).
func BenchmarkFigure6Invoke(b *testing.B) {
	t := runExp(b, exp.Figure6)
	reportMetrics(b, t, map[string]string{
		"fig6.rpc8-cpu1x-us": "vus-1x",
		"fig6.rpc8-cpu2x-us": "vus-2x",
	})
}

// BenchmarkFigure7Caps regenerates Figure 7 (delegation/revocation).
func BenchmarkFigure7Caps(b *testing.B) {
	t := runExp(b, exp.Figure7)
	reportMetrics(b, t, map[string]string{
		"fig7.deleg1-cpu-us":         "vus-deleg",
		"fig7.revoke8-shared-us":     "vus-revoke-shared",
		"fig7.revoke8-individual-us": "vus-revoke-each",
	})
}

// BenchmarkFigure8Pipeline regenerates Figure 8 (star / fast-star /
// chain composition).
func BenchmarkFigure8Pipeline(b *testing.B) {
	t := runExp(b, exp.Figure8)
	reportMetrics(b, t, map[string]string{
		"fig8.star-over-fast-64k": "x-64K",
		"fig8.fast-over-chain-4k": "x-4K",
	})
}

// BenchmarkFigure9GPU regenerates Figure 9 (GPU service vs rCUDA).
func BenchmarkFigure9GPU(b *testing.B) {
	t := runExp(b, exp.Figure9)
	reportMetrics(b, t, map[string]string{
		"fig9.lat64-rcuda-over-fractos": "x-latency",
		"fig9.tput4-fractos":            "reqps",
	})
}

// BenchmarkFigure10Storage regenerates Figure 10 (storage latency).
func BenchmarkFigure10Storage(b *testing.B) {
	t := runExp(b, exp.Figure10)
	reportMetrics(b, t, map[string]string{
		"fig10.read4k-dax-us":        "vus-dax-4k",
		"fig10.read256K-dax-speedup": "x-dax-256K",
	})
}

// BenchmarkFigure11StorageTput regenerates Figure 11 (storage
// throughput).
func BenchmarkFigure11StorageTput(b *testing.B) {
	t := runExp(b, exp.Figure11)
	reportMetrics(b, t, map[string]string{
		"fig11.rand-dax-mbps": "MBps-dax",
		"fig11.rand-fs-mbps":  "MBps-fs",
	})
}

// BenchmarkFigure12E2ELatency regenerates Figure 12 (end-to-end
// latency; the paper's 47% headline).
func BenchmarkFigure12E2ELatency(b *testing.B) {
	t := runExp(b, exp.Figure12)
	reportMetrics(b, t, map[string]string{
		"fig12.speedup32":        "x-speedup",
		"fig12.lat32-fractos-ms": "vms-fractos",
	})
}

// BenchmarkFigure13E2ETput regenerates Figure 13 (end-to-end
// throughput).
func BenchmarkFigure13E2ETput(b *testing.B) {
	t := runExp(b, exp.Figure13)
	reportMetrics(b, t, map[string]string{
		"fig13.tput4-fractos":  "reqps",
		"fig13.tput4-baseline": "reqps-base",
	})
}

// BenchmarkAblationDirect measures the mediated/composed/leased
// storage-interface ablation.
func BenchmarkAblationDirect(b *testing.B) {
	t := runExp(b, exp.AblationDirectComposition)
	reportMetrics(b, t, map[string]string{
		"abl-direct.fs-us":     "vus-fs",
		"abl-direct.direct-us": "vus-direct",
		"abl-direct.dax-us":    "vus-dax",
	})
}

// BenchmarkAblationDoubleBuffer measures the double-buffering ablation.
func BenchmarkAblationDoubleBuffer(b *testing.B) {
	t := runExp(b, exp.AblationDoubleBuffer)
	reportMetrics(b, t, map[string]string{"abl-dbuf.gain-1m": "x-gain"})
}

// BenchmarkAblationConcurrentCopies measures §6.1's concurrent-copy
// saturation.
func BenchmarkAblationConcurrentCopies(b *testing.B) {
	t := runExp(b, exp.AblationConcurrentCopies)
	reportMetrics(b, t, map[string]string{
		"abl-conc-copy.cpu4k-1":  "MBps-1",
		"abl-conc-copy.cpu4k-16": "MBps-16",
	})
}

// BenchmarkAblationMessageComplexity measures §2.1's message counts.
func BenchmarkAblationMessageComplexity(b *testing.B) {
	t := runExp(b, exp.AblationMessageComplexity)
	reportMetrics(b, t, map[string]string{
		"abl-msgs.ratio8": "x-star-over-chain",
	})
}

// BenchmarkAblationWindow measures the congestion-window ablation.
func BenchmarkAblationWindow(b *testing.B) {
	t := runExp(b, exp.AblationWindow)
	reportMetrics(b, t, map[string]string{
		"abl-window.w1":  "rpcps-w1",
		"abl-window.w32": "rpcps-w32",
	})
}

// BenchmarkAblationRevtreeDepth measures deep-tree revocation.
func BenchmarkAblationRevtreeDepth(b *testing.B) {
	t := runExp(b, exp.AblationRevtreeDepth)
	reportMetrics(b, t, map[string]string{"abl-revtree.d256-us": "vus-d256"})
}

// BenchmarkAblationPlacement measures controller-placement costs.
func BenchmarkAblationPlacement(b *testing.B) {
	t := runExp(b, exp.AblationPlacement)
	reportMetrics(b, t, map[string]string{"abl-placement.shared-null-us": "vus-shared"})
}
