package fabric

import (
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
	free[0] = n.flights.Len()
	k.Spawn("tx2", func(tk *sim.Task) { burst(tk, 1_000_000) })
	k.Run()
	free[1] = n.flights.Len()

	// Every record parked on the free list was cleared on release: a
	// stale reference could not have delivered anything through it.
	var parked []*flight
	for n.flights.Len() > 0 {
		f := n.getFlight()
		if *f != (flight{}) {
			t.Errorf("parked in-flight record not cleared: %+v", *f)
		}
		parked = append(parked, f)
	}
	for _, f := range parked {
		f.net = n // what launch stamps; putFlight insists on it
		n.putFlight(f)
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
	f := n.getFlight() // the record that just delivered, cleared
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
	mustPanic("second release", func() { n.putFlight(f) })
}
