package core

import (
	"testing"
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
	c.Start()
	provEP := c.AttachProcess(1, "prov", loc, 0)
	cliEP := c.AttachProcess(2, "cli", loc, 0)
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

// TestDedupRingBounded runs 100k distinct tokens through one peer's
// at-most-once cache: it must hold exactly the newest dedupCap replies
// in a ring that stopped growing at dedupCap slots.
func TestDedupRingBounded(t *testing.T) {
	const tokens = 100_000
	k := sim.New(1)
	net := fabric.New(k, fabric.DefaultProfile())
	loc := fabric.Location{Node: 0, Domain: fabric.Host}
	c := New(k, net, 1, Config{Loc: loc, RPCTimeout: DefaultRPCTimeout})
	peer := net.Attach("peer", fabric.Location{Node: 1}, 0)
	for tok := uint64(1); tok <= tokens; tok++ {
		c.reply(peer.ID, tok, &wire.CtrlAck{Token: tok})
		c.reply(peer.ID, tok, &wire.CtrlAck{Token: tok}) // a retransmission's reply must not take a second slot
	}
	k.Run()
	ds := c.dedup[peer.ID]
	if len(ds.replies) != dedupCap || len(ds.order) != dedupCap {
		t.Fatalf("cache holds %d replies in %d ring slots, want %d", len(ds.replies), len(ds.order), dedupCap)
	}
	if cap(ds.order) > 2*dedupCap {
		t.Errorf("ring capacity %d after %d tokens: it kept growing", cap(ds.order), tokens)
	}
	for tok := uint64(1); tok <= tokens; tok++ {
		if _, hit := ds.replies[tok]; hit != (tok > tokens-dedupCap) {
			t.Fatalf("token %d cached = %v; FIFO eviction must keep exactly the newest %d", tok, hit, dedupCap)
		}
	}
}
