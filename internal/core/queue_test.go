package core

import (
	"testing"
	"time"
	"unsafe"

	fcap "fractos/internal/cap" // aliased: the test needs the builtin cap
	"fractos/internal/fabric"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// TestBackpressureQueueDoesNotDrift pushes 100k deliveries through a
// provider whose congestion window is permanently full, so every one
// of them waits in procState.queue. The queue pops by in-place shift:
// its backing array must stay the one it grew to while the backlog
// built up. Popping by re-slicing (queue = queue[1:]) drifted through
// the array and reallocated it every few pops for the life of the
// run, pinning each abandoned array until the next collection.
func TestBackpressureQueueDoesNotDrift(t *testing.T) {
	const (
		window      = 4
		backlog     = 16 // invocations the client keeps outstanding
		invocations = 100_000
	)
	k := sim.New(1)
	net := fabric.New(k, fabric.DefaultProfile())
	loc := fabric.Location{Node: 0, Domain: fabric.Host}
	c := New(k, net, 1, Config{Loc: loc, Window: window})
	provEP := c.AttachProcess(1, "prov", loc, 0, nil)
	cliEP := c.AttachProcess(2, "cli", loc, 0, nil)
	prov := c.procs[1]

	// The provider's Request, handed to the client through the
	// bootstrap path.
	node := c.tree.Create(&reqObject{provider: 1, tag: 7})
	cid, ok := c.GrantEntry(2, fcap.Entry{Ref: c.ref(node.ID), Kind: fcap.KindRequest, Rights: fcap.ReqRights})
	if !ok {
		t.Fatal("grant failed")
	}

	credits := sim.NewSemaphore(backlog)
	var stableAt unsafe.Pointer // backing array once the backlog has built up
	maxCap, served := 0, 0
	k.Spawn("provider", func(tk *sim.Task) {
		for served < invocations {
			d, ok := provEP.Inbox.Recv(tk)
			if !ok {
				return
			}
			dl, isDeliver := d.Msg.(*wire.Deliver)
			if !isDeliver {
				continue
			}
			served++
			if n := cap(prov.queue); n > maxCap {
				maxCap = n
			}
			if len(prov.queue) > 0 {
				at := unsafe.Pointer(unsafe.SliceData(prov.queue))
				switch {
				case served == 1000:
					stableAt = at
				case served > 1000 && at != stableAt:
					t.Errorf("delivery %d: queue backing array moved (cap %d): the queue drifts", served, cap(prov.queue))
					served = invocations
				}
			}
			if !net.Send(provEP.ID, c.EndpointID(), &wire.DeliverDone{Seq: dl.Seq}) {
				t.Error("provider ack refused")
			}
			credits.Release()
		}
	})
	k.Spawn("client", func(tk *sim.Task) {
		for i := 0; i < invocations; i++ {
			credits.Acquire(tk)
			if !net.Send(cliEP.ID, c.EndpointID(), &wire.ReqInvoke{Token: uint64(i + 1), Cid: cid}) {
				t.Error("client invoke refused")
			}
		}
	})
	k.Spawn("client-rx", func(tk *sim.Task) {
		for {
			if _, ok := cliEP.Inbox.Recv(tk); !ok {
				return
			}
		}
	})
	k.Run()
	k.Shutdown()

	if served != invocations {
		t.Fatalf("served %d of %d invocations", served, invocations)
	}
	if bp := c.Metrics().Backpressured; bp < invocations*9/10 {
		t.Fatalf("only %d of %d deliveries were back-pressured; the queue was not exercised", bp, invocations)
	}
	if maxCap == 0 || maxCap > 4*backlog {
		t.Errorf("cap(queue) peaked at %d for a backlog of %d", maxCap, backlog)
	}
}

// TestControllerRxQueueDoesNotDrift keeps a Controller permanently
// backlogged — a client holds 16 null syscalls outstanding, and every
// completion releases the next — for 100k messages. They wait in
// rxQueue behind the one in service, which pops by in-place shift: its
// backing array must stay the one the first burst grew, and a vacated
// slot must not keep its decoded message alive.
func TestControllerRxQueueDoesNotDrift(t *testing.T) {
	const (
		backlog  = 16
		syscalls = 100_000
	)
	k := sim.New(1)
	net := fabric.New(k, fabric.DefaultProfile())
	loc := fabric.Location{Node: 0, Domain: fabric.Host}
	c := New(k, net, 1, Config{Loc: loc})
	cliEP := c.AttachProcess(1, "cli", loc, 0, nil)

	credits := sim.NewSemaphore(backlog)
	k.Spawn("client", func(tk *sim.Task) {
		for i := 0; i < syscalls; i++ {
			credits.Acquire(tk)
			if !net.Send(cliEP.ID, c.EndpointID(), &wire.Null{Token: uint64(i + 1)}) {
				t.Error("client syscall refused")
			}
		}
	})
	var stableAt unsafe.Pointer // backing array once the backlog has built up
	maxLen, maxCap, done := 0, 0, 0
	k.Spawn("client-rx", func(tk *sim.Task) {
		for done < syscalls {
			if _, ok := cliEP.Inbox.Recv(tk); !ok {
				return
			}
			done++
			maxLen, maxCap = max(maxLen, len(c.rxQueue)), max(maxCap, cap(c.rxQueue))
			if at := unsafe.Pointer(unsafe.SliceData(c.rxQueue)); done == 1000 {
				stableAt = at
			} else if done > 1000 && at != stableAt {
				t.Errorf("completion %d: rxQueue backing array moved (cap %d): the queue drifts", done, cap(c.rxQueue))
				done = syscalls
			}
			credits.Release()
		}
	})
	k.Run()
	k.Shutdown()

	if done != syscalls || c.Metrics().NullOps != syscalls {
		t.Fatalf("%d completions for %d null syscalls served, want %d of each", done, c.Metrics().NullOps, syscalls)
	}
	if maxLen < backlog/2 {
		t.Fatalf("rxQueue never held more than %d messages; the queue was not exercised", maxLen)
	}
	if maxCap > 4*backlog {
		t.Errorf("cap(rxQueue) peaked at %d for a backlog of %d", maxCap, backlog)
	}
	if len(c.rxQueue) != 0 {
		t.Fatalf("drained Controller has %d messages queued", len(c.rxQueue))
	}
	for i, f := range c.rxQueue[:cap(c.rxQueue)] {
		if f != nil {
			t.Fatalf("vacated rxQueue slot %d still holds a frame", i)
		}
	}
}

// TestCrashDiscardsQueuedMessages pins what a crash does to the
// receive side. Three probes reach a Controller back to back, so the
// first is in service and two wait behind it when Crash lands. The one
// in service still runs its handler when its service time ends — the
// answer is refused by the severed endpoint and counted — while the two
// queued ones are discarded as they are taken, their frames handed back
// to the fabric: they are neither answered nor replayed after Reboot,
// and the rebooted Controller serves again. Health probes stand in for
// syscalls because they are the traffic whose handling stays
// observable: Crash also fails every managed Process, and dispatch
// drops a failed Process's syscalls before they are counted anywhere.
func TestCrashDiscardsQueuedMessages(t *testing.T) {
	k := sim.New(1)
	net := fabric.New(k, fabric.DefaultProfile())
	c := New(k, net, 1, Config{Loc: fabric.Location{Node: 0, Domain: fabric.Host}})
	prober := net.Attach("prober", fabric.Location{Node: 1}, 0)
	ping := func(seq uint64) {
		if !net.Send(prober.ID, c.EndpointID(), &wire.WatchPing{Seq: seq}) {
			t.Fatalf("ping %d refused", seq)
		}
	}

	for seq := uint64(1); seq <= 3; seq++ {
		ping(seq)
	}
	// Poll every 10 ns and crash the Controller once all three wait.
	crashed := false
	var poll func()
	poll = func() {
		switch {
		case len(c.rxQueue) >= 3:
			c.Crash()
			crashed = true
		case k.Now() > time.Millisecond:
			t.Errorf("three pings never queued up: %d in the queue", len(c.rxQueue))
		default:
			k.After(10, poll)
		}
	}
	poll()
	k.Run()
	if !crashed {
		t.FailNow()
	}
	if got := c.Metrics().SendFailed; got != 1 {
		t.Fatalf("%d refused sends after the crash, want 1: only the probe in service runs its handler", got)
	}
	if lent := k.Unparked(); len(c.rxQueue) != 0 || lent != "" {
		t.Fatalf("crashed Controller still has %d messages queued; records lent: %q", len(c.rxQueue), lent)
	}

	c.Reboot()
	k.Run()
	if n := prober.Inbox.Len(); n != 0 || c.Metrics().SendFailed != 1 {
		t.Fatalf("reboot replayed queued probes: %d pongs, %d refused sends", n, c.Metrics().SendFailed)
	}
	ping(4)
	k.Run()
	d, ok := prober.Inbox.TryRecv()
	pong, isPong := d.Msg.(*wire.WatchPong)
	if !ok || !isPong || pong.Seq != 4 || pong.Epoch != 2 || prober.Inbox.Len() != 0 {
		t.Fatalf("rebooted Controller answered ping 4 with %+v (%d more queued), want one epoch-2 pong", d.Msg, prober.Inbox.Len())
	}
}

// dedupRig is a Controller on a lossy fabric, so it keeps the
// at-most-once cache, and one peer whose frames the test reads.
func dedupRig() (*sim.Kernel, *Controller, *fabric.Endpoint, *peerState) {
	const peerID = fcap.ControllerID(2)
	k := sim.New(1)
	net := fabric.New(k, fabric.DefaultProfile())
	net.InstallFaults(fabric.Faults{})
	c := New(k, net, 1, Config{Loc: fabric.Location{Node: 0, Domain: fabric.Host}})
	peer := net.Attach("peer", fabric.Location{Node: 1}, 0)
	c.AddPeer(peerID, peer.ID)
	return k, c, peer, c.peers[peerID]
}

// TestDedupRingBounded runs 100k distinct tokens through one peer's
// at-most-once cache: its index must hold exactly the newest dedupCap
// replies, in the ring of dedupCap slots it was made with.
func TestDedupRingBounded(t *testing.T) {
	const tokens = 100_000
	k, c, peer, p := dedupRig()
	for tok := uint64(1); tok <= tokens; tok++ {
		c.reply(peer.ID, &wire.CtrlAck{Token: tok})
		c.reply(peer.ID, &wire.CtrlAck{Token: tok, Status: wire.StatusRevoked}) // a retransmission's reply must not take a second slot
	}
	k.Run()
	d := &p.dedup
	if len(d.index) != dedupCap || cap(d.ring) != dedupCap {
		t.Fatalf("cache indexes %d replies in a ring of capacity %d, want %d in %d: the ring regrew",
			len(d.index), cap(d.ring), dedupCap, dedupCap)
	}
	for tok := uint64(1); tok <= tokens; tok++ {
		cached := d.lookup(tok)
		if (cached != nil) != (tok > tokens-dedupCap) {
			t.Fatalf("token %d cached = %v; FIFO eviction must keep exactly the newest %d", tok, cached != nil, dedupCap)
		}
		if a, ok := cached.(*wire.CtrlAck); cached != nil && (!ok || *a != (wire.CtrlAck{Token: tok})) {
			t.Fatalf("token %d answered %+v; the first reply to a token stands", tok, cached)
		}
	}
}

// TestDedupResendsAndResets checks what the cache sends and when it
// empties: a repeated request is answered with the bytes of the first
// reply, whichever of the two cached kinds it was, and both a peer's
// epoch bump and our own Crash+Reboot leave the cache empty, its ring
// kept for the next incarnation.
func TestDedupResendsAndResets(t *testing.T) {
	k, c, peer, p := dedupRig()
	replies := []wire.Message{
		&wire.CtrlAck{Token: 7, Status: wire.StatusOK, Obj: 3, Epoch: 1, Size: 64, Rights: fcap.Read},
		&wire.CtrlValInfo{Token: 8, Status: wire.StatusOK, Endpoint: 5, Base: 4096, Size: 64, Rights: fcap.MemRights},
	}
	repeats := []wire.Message{&wire.CtrlInvoke{Token: 7}, &wire.CtrlValidate{Token: 8}}
	c.reply(peer.ID, replies[0])
	c.reply(peer.ID, replies[1])
	k.Run()
	if n := peer.Inbox.Len(); n != 2 {
		t.Fatalf("%d first replies arrived, want 2", n)
	}
	peer.Inbox.TryRecv()
	peer.Inbox.TryRecv()
	for i, m := range repeats {
		if !c.net.Send(peer.ID, c.EndpointID(), m) {
			t.Fatalf("repeat %d refused", i)
		}
		k.Run()
		got, ok := peer.Inbox.TryRecv()
		if !ok || string(wire.Marshal(got.Msg)) != string(wire.Marshal(replies[i])) {
			t.Errorf("repeat of token %d answered %+v, want the cached %+v", i+7, got.Msg, replies[i])
		}
	}
	if hits := c.Metrics().DedupHits; hits != 2 {
		t.Errorf("%d dedup hits, want 2", hits)
	}

	ring := unsafe.SliceData(p.dedup.ring)
	empty := func(after string) {
		t.Helper()
		if len(p.dedup.index) != 0 || p.dedup.lookup(7) != nil || unsafe.SliceData(p.dedup.ring) != ring {
			t.Errorf("after %s: %d indexed, token 7 cached = %v, ring kept = %v; want empty, storage kept",
				after, len(p.dedup.index), p.dedup.lookup(7) != nil, unsafe.SliceData(p.dedup.ring) == ring)
		}
	}
	c.peerEpoch(&wire.CtrlEpoch{Ctrl: 2, Epoch: 2})
	empty("the peer's epoch bump")
	c.reply(peer.ID, replies[0])
	c.Crash()
	c.Reboot()
	k.Run()
	empty("Crash+Reboot")
}
