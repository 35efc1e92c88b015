package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"fractos/internal/sim"
	"fractos/internal/wire"
)

// flightChaos drives two bursts of cross-node sends through a lossy,
// duplicating, jittery fabric, severing and re-attaching the receiver
// while frames are on the wire. It returns the full transcript (every
// transfer the fabric traced plus every message the receiver saw) and
// the free-list length at quiescence after each burst.
func flightChaos(t *testing.T) (transcript string, free [2]int) {
	t.Helper()
	k := sim.New(9)
	n := New(k, DefaultProfile())
	n.InstallFaults(Faults{Drop: 0.01, Dup: 0.05, Jitter: us(2), Seed: 4})
	a := n.Attach("a", Location{Node: 0}, 0)
	b := n.Attach("b", Location{Node: 1}, 0)

	var sb strings.Builder
	n.SetTrace(func(e TraceEvent) {
		fmt.Fprintf(&sb, "%d %d>%d %d lost=%v\n", e.At, e.From, e.To, e.Bytes, e.Lost)
	})
	k.Spawn("rx", func(tk *sim.Task) {
		for {
			d, ok := b.Inbox.Recv(tk)
			if !ok {
				return
			}
			fmt.Fprintf(&sb, "%d rx %d\n", tk.Now(), d.Msg.(*wire.Null).Token)
		}
	})
	burst := func(tk *sim.Task, base int) {
		const frames = 3000
		for i := 0; i < frames; i++ {
			switch i {
			case frames / 3:
				// Frames take ~2 µs and leave every 300 ns, so several
				// are on the wire right now: they must fire, find the
				// receiver gone, and still hand their records back.
				n.Disconnect(b.ID)
			case frames/3 + 50:
				n.Reconnect(b.ID)
			}
			n.Send(a.ID, b.ID, &wire.Null{Token: uint64(base + i)})
			tk.Sleep(300)
		}
	}
	k.Spawn("tx", func(tk *sim.Task) { burst(tk, 0) })
	k.Run()
	free[0] = n.frames.Len()
	k.Spawn("tx2", func(tk *sim.Task) { burst(tk, 1_000_000) })
	k.Run()
	free[1] = n.frames.Len()

	// Every record parked on the free list was cleared on release: a
	// stale reference could not have delivered anything through it.
	var parked []*Frame
	for n.frames.Len() > 0 {
		f := n.frames.Get()
		if f.From != 0 || f.net != nil || f.dst != nil || len(f.Bytes()) != 0 {
			t.Errorf("parked frame not cleared: %+v", *f)
		}
		parked = append(parked, f)
	}
	for _, f := range parked {
		f.net = n // what encode stamps; Release insists on it
		f.Release()
	}
	st := n.FaultStats()
	if st.Dropped == 0 || st.Duplicated == 0 || st.Delayed == 0 {
		t.Errorf("chaos paths not exercised: %+v", st)
	}
	k.Shutdown()
	return sb.String(), free
}

// TestFlightRecordLifecycle pins the in-flight record pool's contract
// under every way a frame can end: delivered, dropped by the chaos
// layer, duplicated, and fired at a receiver that disconnected while
// the frame was on the wire. Records come back exactly once — the free
// list at quiescence is as long after the second burst as after the
// first (a leak would shorten it, a double release trips putFlight's
// assert) and bounded by the frames in flight at once, not by the
// frames sent — and recycling them leaves the run byte-identical.
func TestFlightRecordLifecycle(t *testing.T) {
	tr1, free := flightChaos(t)
	if free[0] == 0 {
		t.Fatal("no in-flight record was ever recycled")
	}
	if free[1] != free[0] {
		t.Errorf("free list holds %d records after the second burst, %d after the first: records leaked or returned twice", free[1], free[0])
	}
	if free[0] > 64 {
		t.Errorf("free list grew to %d records for ~10 frames in flight: it tracks frames sent, not peak in flight", free[0])
	}
	tr2, _ := flightChaos(t)
	if tr1 != tr2 {
		t.Error("two runs of the same chaos schedule produced different transcripts")
	}
}

// TestFlightDoubleReleasePanics proves the poison bites: releasing a
// record a second time, or firing one that was already released, is an
// invariant violation, not silent corruption.
func TestFlightDoubleReleasePanics(t *testing.T) {
	k, n := newNet()
	a := n.Attach("a", Location{Node: 0}, 0)
	b := n.Attach("b", Location{Node: 1}, 0)
	n.Send(a.ID, b.ID, &wire.Null{Token: 1})
	k.Run()
	f := n.frames.Get() // the record that just delivered, cleared
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("fire after release", f.Fire)
	mustPanic("second release", f.Release)
}

// hoarder is a Handler that, like a Controller, queues the frames it is
// handed and gets to them later.
type hoarder struct{ queue []*Frame }

func (h *hoarder) Deliver(f *Frame) { h.queue = append(h.queue, f) }

// unregistered encodes like any message but has no decoder: the
// receiver's decode of its frame fails.
type unregistered struct{ wire.Null }

func (*unregistered) WireType() wire.Type { return 999 }

// TestHandlerOwnsItsFrames pins the hand-over to a Handler endpoint. A
// frame the handler has not released is never recycled under it — 100
// queued frames still decode to the 100 messages sent, while further
// traffic runs through the fabric — and each comes back to the free
// list exactly once when released. On a Net built duplicating, a chaos
// duplicate arrives in a frame of its own with the same bytes, and a
// frame that cannot be decoded is charged to the wire like any other,
// reaches a Handler as bytes, and never reaches a bare endpoint's Inbox.
func TestHandlerOwnsItsFrames(t *testing.T) {
	k, n := newNet()
	a := n.Attach("a", Location{Node: 0}, 0)
	h := &hoarder{}
	b := n.AttachHandler("b", Location{Node: 1}, 0, h)
	c := n.Attach("c", Location{Node: 1}, 0)
	const queued = 100
	for i := 0; i < queued; i++ {
		n.Send(a.ID, b.ID, &wire.Deliver{Seq: uint64(i), Imms: []byte{byte(i), byte(i), byte(i)}})
	}
	k.Run()
	for i := 0; i < 3*queued; i++ { // bystander traffic through the same free list
		n.Send(a.ID, c.ID, &wire.Null{Token: 0xFFFF_FFFF_FFFF_FFFF})
	}
	k.Run()
	if len(h.queue) != queued || c.Inbox.Len() != 3*queued {
		t.Fatalf("%d frames queued at the handler, %d messages in the inbox", len(h.queue), c.Inbox.Len())
	}
	dec := wire.NewDecoder()
	free := n.frames.Len()
	for i, f := range h.queue {
		m, err := dec.Decode(f.Bytes())
		d, ok := m.(*wire.Deliver)
		if err != nil || !ok || d.Seq != uint64(i) || !bytes.Equal(d.Imms, []byte{byte(i), byte(i), byte(i)}) || f.From != a.ID {
			t.Fatalf("queued frame %d from %d decodes to %+v, %v", i, f.From, m, err)
		}
		f.Release()
	}
	if got := n.frames.Len(); got != free+queued || n.frames.Lent() != 0 {
		t.Errorf("free list grew by %d on %d releases, %d frames still live", got-free, queued, n.frames.Lent())
	}

	k, n = newNet()
	n.InstallFaults(Faults{Dup: 1, Seed: 1})
	a = n.Attach("a", Location{Node: 0}, 0)
	h = &hoarder{}
	b = n.AttachHandler("b", Location{Node: 1}, 0, h)
	c = n.Attach("c", Location{Node: 1}, 0)
	n.Send(a.ID, b.ID, &wire.Completion{Token: 7, Aux: 9})
	k.Run()
	if len(h.queue) != 2 || h.queue[0] == h.queue[1] || !bytes.Equal(h.queue[0].Bytes(), h.queue[1].Bytes()) ||
		&h.queue[0].Bytes()[0] == &h.queue[1].Bytes()[0] {
		t.Fatalf("a duplicated frame arrived as %d frames sharing storage or differing in bytes", len(h.queue))
	}
	h.queue[0].Release()
	h.queue[1].Release()

	h.queue = h.queue[:0]
	before := n.Stats()
	bogus := &unregistered{wire.Null{Token: 5}}
	if !n.Send(a.ID, b.ID, bogus) || !n.Send(a.ID, c.ID, bogus) {
		t.Fatal("send of an undecodable message refused")
	}
	k.Run()
	if d := n.Stats().Sub(before); d.ControlMsgs != 4 || d.ControlBytes != 4*int64(wire.SizeOf(bogus)) {
		t.Errorf("two undecodable frames (each duplicated) charged as %d messages, %d bytes", d.ControlMsgs, d.ControlBytes)
	}
	if len(h.queue) != 2 {
		t.Fatalf("handler got %d frames of the undecodable message and its duplicate", len(h.queue))
	}
	if _, err := dec.Decode(h.queue[0].Bytes()); !errors.Is(err, wire.ErrUnknownType) {
		t.Errorf("decode of the undecodable frame: %v", err)
	}
	h.queue[0].Release()
	h.queue[1].Release()
	if c.Inbox.Len() != 0 {
		t.Errorf("an undecodable frame was delivered to a bare endpoint's inbox")
	}
}
