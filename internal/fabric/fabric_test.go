package fabric

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"fractos/internal/sim"
	"fractos/internal/wire"
)

func us(f float64) sim.Time { return sim.Time(f * float64(time.Microsecond)) }

func newNet() (*sim.Kernel, *Net) {
	k := sim.New(1)
	return k, New(k, DefaultProfile())
}

// pingpong measures the round-trip time of a small Raw message between
// two endpoints.
func pingpong(t *testing.T, aLoc, bLoc Location) sim.Time {
	t.Helper()
	k, n := newNet()
	a := n.Attach("a", aLoc, 0)
	b := n.Attach("b", bLoc, 0)
	var rtt sim.Time
	k.Spawn("server", func(tk *sim.Task) {
		d, _ := b.Inbox.Recv(tk)
		n.Send(b.ID, d.From, &wire.Raw{Kind: 2})
	})
	k.Spawn("client", func(tk *sim.Task) {
		start := tk.Now()
		n.Send(a.ID, b.ID, &wire.Raw{Kind: 1})
		a.Inbox.Recv(tk)
		rtt = tk.Now() - start
	})
	k.Run()
	return rtt
}

// within asserts got is within frac of want.
func within(t *testing.T, name string, got, want sim.Time, frac float64) {
	t.Helper()
	diff := float64(got - want)
	if diff < 0 {
		diff = -diff
	}
	if diff > frac*float64(want) {
		t.Errorf("%s = %v, want %v (±%.0f%%)", name, got, want, frac*100)
	}
}

// TestLoopbackLatencyMatchesTable3 checks the fabric against the raw
// loopback numbers of Table 3: ~2.42 µs RTT to a host server, ~3.68 µs
// to a SmartNIC server.
func TestLoopbackLatencyMatchesTable3(t *testing.T) {
	hostRTT := pingpong(t, Location{0, Host}, Location{0, Host})
	within(t, "host loopback RTT", hostRTT, us(2.42), 0.05)

	snicRTT := pingpong(t, Location{0, Host}, Location{0, SNIC})
	within(t, "snic loopback RTT", snicRTT, us(3.68), 0.05)
}

func TestCrossNodeSlowerThanLocal(t *testing.T) {
	local := pingpong(t, Location{0, Host}, Location{0, Host})
	remote := pingpong(t, Location{0, Host}, Location{1, Host})
	if remote <= local {
		t.Errorf("cross-node RTT %v not greater than local %v", remote, local)
	}
}

func TestMessageCarriesRealBytes(t *testing.T) {
	k, n := newNet()
	a := n.Attach("a", Location{0, Host}, 0)
	b := n.Attach("b", Location{1, Host}, 0)
	payload := []byte("the actual data")
	var got []byte
	k.Spawn("recv", func(tk *sim.Task) {
		d, _ := b.Inbox.Recv(tk)
		got = d.Msg.(*wire.Raw).Data
	})
	k.Spawn("send", func(tk *sim.Task) {
		n.Send(a.ID, b.ID, &wire.Raw{Kind: 9, Data: payload})
	})
	k.Run()
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %q want %q", got, payload)
	}
}

func TestBandwidthSerializesTransmissions(t *testing.T) {
	// Two 1.25 MB messages over a 10 Gbps uplink: the second cannot
	// complete before ~2 ms (2 × 1 ms serialization).
	k, n := newNet()
	a := n.Attach("a", Location{0, Host}, 0)
	b := n.Attach("b", Location{1, Host}, 0)
	var lastArrival sim.Time
	k.Spawn("recv", func(tk *sim.Task) {
		for i := 0; i < 2; i++ {
			b.Inbox.Recv(tk)
			lastArrival = tk.Now()
		}
	})
	k.Spawn("send", func(tk *sim.Task) {
		big := make([]byte, 1250000)
		n.Send(a.ID, b.ID, &wire.Raw{Data: big, IsData: true})
		n.Send(a.ID, b.ID, &wire.Raw{Data: big, IsData: true})
	})
	k.Run()
	if lastArrival < 2*time.Millisecond {
		t.Errorf("second 1.25MB message arrived at %v; 10 Gbps allows no earlier than 2ms", lastArrival)
	}
	if lastArrival > 3*time.Millisecond {
		t.Errorf("second message arrived at %v, far above expected ~2ms", lastArrival)
	}
}

func TestStatsClassification(t *testing.T) {
	k, n := newNet()
	a := n.Attach("a", Location{0, Host}, 0)
	b := n.Attach("b", Location{1, Host}, 0)
	c := n.Attach("c", Location{0, Host}, 0)
	k.Spawn("send", func(tk *sim.Task) {
		n.Send(a.ID, b.ID, &wire.Raw{})                                       // control, cross-node
		n.Send(a.ID, b.ID, &wire.Raw{IsData: true, Data: make([]byte, 4096)}) // data, cross-node
		n.Send(a.ID, c.ID, &wire.Raw{})                                       // control, same-node
	})
	k.Run()
	s := n.Stats()
	if s.ControlMsgs != 2 || s.DataMsgs != 1 {
		t.Errorf("msgs: %+v", s)
	}
	if s.CrossNodeMsgs != 2 {
		t.Errorf("cross-node msgs = %d, want 2", s.CrossNodeMsgs)
	}
	if s.DataBytes < 4096 {
		t.Errorf("data bytes = %d, want >= 4096", s.DataBytes)
	}
	// Snapshot arithmetic.
	snap := n.Stats()
	if d := snap.Sub(s); d.TotalMsgs() != 0 || d.TotalBytes() != 0 {
		t.Errorf("Sub of identical snapshots nonzero: %+v", d)
	}
}

func TestRDMAReadMovesBytes(t *testing.T) {
	k, n := newNet()
	ctrl := n.Attach("ctrl", Location{0, Host}, 1024)
	proc := n.Attach("proc", Location{1, Host}, 1024)
	copy(proc.Arena()[100:], "remote-bytes")
	var rtt sim.Time
	k.Spawn("reader", func(tk *sim.Task) {
		start := tk.Now()
		f := n.RDMARead(ctrl.ID, 0, proc.ID, 100, 12)
		if _, err := f.Wait(tk); err != nil {
			t.Errorf("rdma read: %v", err)
		}
		rtt = tk.Now() - start
	})
	k.Run()
	if string(ctrl.Arena()[:12]) != "remote-bytes" {
		t.Fatalf("arena = %q", ctrl.Arena()[:12])
	}
	// §6.1: 1-Byte RDMA ≈ 3.3 µs; 12 bytes is barely more.
	within(t, "small RDMA read", rtt, us(3.3), 0.15)
}

// stamp is a completion that records when it fired.
type stamp struct {
	k  *sim.Kernel
	at sim.Time
}

func (s *stamp) Fire() { s.at = s.k.Now() }

// TestReadThenNextFollowsOnTheLink: RDMAReadThen returns the last
// instant at which a second read from the same source can be posted and
// still find the source's link busy with the first — from a host or a
// SmartNIC initiator, across nodes or on one. Posted then, the second
// completes exactly its own serialisation after the first; posted 1 ns
// later, 1 ns more, for the link idled.
func TestReadThenNextFollowsOnTheLink(t *testing.T) {
	const size = 16 << 10
	for _, ini := range []Location{{0, Host}, {0, SNIC}} {
		for _, srcNode := range []int{0, 1} {
			for _, late := range []sim.Time{0, 1} {
				k, n := newNet()
				a := n.Attach("a", ini, 2*size)
				b := n.Attach("b", Location{srcNode, Host}, 2*size)
				first, second := &stamp{k: k}, &stamp{k: k}
				k.After(0, func() {
					next, err := n.RDMAReadThen(first, a.ID, 0, b.ID, 0, size)
					if err != nil {
						t.Error(err)
						return
					}
					k.After(next+late-k.Now(), func() {
						if _, err := n.RDMAReadThen(second, a.ID, size, b.ID, size, size); err != nil {
							t.Error(err)
						}
					})
				})
				k.Run()
				bw := n.prof.WireBW
				if srcNode == ini.Node {
					bw = n.prof.LocalBW
				}
				if gap, want := second.at-first.at, sim.Time(float64(size)/bw*1e9)+late; gap != want {
					t.Errorf("%v reading node %d, posted %v after the returned instant: completions %v apart, want %v", ini, srcNode, late, gap, want)
				}
			}
		}
	}
}

func TestRDMAWriteMovesBytes(t *testing.T) {
	k, n := newNet()
	ctrl := n.Attach("ctrl", Location{0, Host}, 64)
	proc := n.Attach("proc", Location{1, Host}, 64)
	copy(ctrl.Arena(), "W")
	k.Spawn("writer", func(tk *sim.Task) {
		start := tk.Now()
		at, err := n.RDMAWriteAt(ctrl.ID, 0, proc.ID, 7, 1)
		if err != nil || at <= start {
			t.Errorf("rdma write: completes at %v, issued at %v, err %v", at, start, err)
		}
	})
	k.Run()
	if proc.Arena()[7] != 'W' {
		t.Fatal("write did not land")
	}
}

func TestRDMACopyThirdParty(t *testing.T) {
	k, n := newNet()
	ini := n.Attach("ctrl", Location{0, Host}, 0)
	src := n.Attach("src", Location{1, Host}, 128)
	dst := n.Attach("dst", Location{2, Host}, 128)
	copy(src.Arena()[5:], "direct")
	k.Spawn("copy", func(tk *sim.Task) {
		if err := rdmaCopy(tk, n, ini.ID, src.ID, 5, dst.ID, 50, 6); err != nil {
			t.Errorf("rdma copy: %v", err)
		}
	})
	k.Run()
	if string(dst.Arena()[50:56]) != "direct" {
		t.Fatalf("dst arena = %q", dst.Arena()[50:56])
	}
}

func TestRDMABoundsChecked(t *testing.T) {
	k, n := newNet()
	a := n.Attach("a", Location{0, Host}, 16)
	b := n.Attach("b", Location{1, Host}, 16)
	var err error
	k.Spawn("oob", func(tk *sim.Task) {
		_, err = n.RDMARead(a.ID, 0, b.ID, 10, 10).Wait(tk)
	})
	k.Run()
	if err == nil {
		t.Fatal("out-of-bounds RDMA succeeded")
	}
}

// TestRDMARangeEdges: a one-sided op starts only if both of its ranges
// lie inside their arenas. Each row is tried on either leg — the arena
// under test is the source, then the destination, the other arena
// registered at MaxInt bytes — and a refused op moves and books nothing.
// A negative length, and an offset whose sum with a length near MaxInt
// wraps around, both pass an off+n > size test.
func TestRDMARangeEdges(t *testing.T) {
	const size = 4096
	rows := []struct {
		off, n int
		ok     bool
	}{
		{0, -1, false},
		{0, 0, true},
		{0, size, true},
		{0, size + 1, false},
		{64, math.MaxInt - 10, false},
	}
	for _, side := range []string{"source", "dest"} {
		for _, r := range rows {
			_, n := newNet()
			a := n.Attach("a", Location{0, Host}, size)
			b := n.Attach("b", Location{1, Host}, math.MaxInt)
			srcOff, dstOff, src, dst := r.off, 0, a, b
			if side == "dest" {
				srcOff, dstOff, src, dst = 0, r.off, b, a
			}
			_, _, err := n.rdmaTransfer(src, src, dst, srcOff, dstOff, r.n, false)
			booked := n.Stats().TotalBytes()
			switch {
			case r.ok && (err != nil || booked != int64(r.n)):
				t.Errorf("%s [%d,+%d): %v, %d bytes booked; want it moved", side, r.off, r.n, err, booked)
			case !r.ok && (err == nil || booked != 0):
				t.Errorf("%s [%d,+%d): %v, %d bytes booked; want it refused, none booked", side, r.off, r.n, err, booked)
			case err != nil && r.n >= 0 && !strings.Contains(err.Error(), side+" range"):
				t.Errorf("%s [%d,+%d): %q does not name the %s range", side, r.off, r.n, err, side)
			}
		}
	}
}

func TestDisconnectDropsTraffic(t *testing.T) {
	k, n := newNet()
	a := n.Attach("a", Location{0, Host}, 16)
	b := n.Attach("b", Location{1, Host}, 16)
	n.Disconnect(b.ID)
	if n.Send(a.ID, b.ID, &wire.Raw{}) {
		t.Error("send to disconnected endpoint reported success")
	}
	var rdmaErr error
	k.Spawn("rdma", func(tk *sim.Task) {
		_, rdmaErr = n.RDMARead(a.ID, 0, b.ID, 0, 4).Wait(tk)
	})
	k.Run()
	if rdmaErr == nil {
		t.Error("RDMA to disconnected endpoint succeeded")
	}
	n.Reconnect(b.ID)
	if !n.Send(a.ID, b.ID, &wire.Raw{}) {
		t.Error("send after reconnect failed")
	}
}

func TestDisconnectMidFlightDropsDelivery(t *testing.T) {
	k, n := newNet()
	a := n.Attach("a", Location{0, Host}, 0)
	b := n.Attach("b", Location{1, Host}, 0)
	k.Spawn("send", func(tk *sim.Task) {
		n.Send(a.ID, b.ID, &wire.Raw{})
		n.Disconnect(b.ID) // before delivery completes
	})
	k.Run()
	if b.Inbox.Len() != 0 {
		t.Error("message delivered to endpoint disconnected mid-flight")
	}
}

func TestTraceHook(t *testing.T) {
	k, n := newNet()
	a := n.Attach("a", Location{0, Host}, 32)
	b := n.Attach("b", Location{1, Host}, 32)
	var events []TraceEvent
	n.SetTrace(func(e TraceEvent) { events = append(events, e) })
	k.Spawn("go", func(tk *sim.Task) {
		n.Send(a.ID, b.ID, &wire.Raw{})
		if _, err := n.RDMAWriteAt(a.ID, 0, b.ID, 0, 8); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if len(events) != 2 {
		t.Fatalf("got %d trace events, want 2", len(events))
	}
	if events[0].RDMA || !events[1].RDMA {
		t.Errorf("trace kinds wrong: %+v", events)
	}
	if events[1].Bytes != 8 {
		t.Errorf("rdma trace bytes = %d", events[1].Bytes)
	}
}

// Property: for random payload sizes and random topology placements,
// bytes received always equal bytes sent (byte conservation), and the
// data arrives intact.
func TestByteConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := sim.New(seed)
		n := New(k, DefaultProfile())
		a := n.Attach("a", Location{rng.Intn(3), Domain(rng.Intn(2))}, 0)
		b := n.Attach("b", Location{rng.Intn(3), Domain(rng.Intn(2))}, 0)
		payload := make([]byte, rng.Intn(10000))
		rng.Read(payload)
		ok := true
		k.Spawn("recv", func(tk *sim.Task) {
			d, _ := b.Inbox.Recv(tk)
			raw := d.Msg.(*wire.Raw)
			if !bytes.Equal(raw.Data, payload) {
				ok = false
			}
			if d.Bytes != wire.SizeOf(raw) {
				ok = false
			}
		})
		k.Spawn("send", func(tk *sim.Task) {
			n.Send(a.ID, b.ID, &wire.Raw{Data: payload})
		})
		k.Run()
		st := n.Stats()
		return ok && st.TotalBytes() == int64(wire.SizeOf(&wire.Raw{Data: payload}))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: RDMA between random arenas preserves all non-target bytes
// and copies the target range exactly.
func TestRDMAExactRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := sim.New(seed)
		n := New(k, DefaultProfile())
		a := n.Attach("a", Location{0, Host}, 256)
		b := n.Attach("b", Location{1, Host}, 256)
		rng.Read(a.Arena())
		rng.Read(b.Arena())
		before := append([]byte(nil), a.Arena()...)
		srcOff := rng.Intn(200)
		dstOff := rng.Intn(200)
		ln := rng.Intn(min(256-srcOff, 256-dstOff))
		want := append([]byte(nil), b.Arena()[srcOff:srcOff+ln]...)
		ok := true
		k.Spawn("r", func(tk *sim.Task) {
			if _, err := n.RDMARead(a.ID, dstOff, b.ID, srcOff, ln).Wait(tk); err != nil {
				ok = false
			}
		})
		k.Run()
		if !ok {
			return false
		}
		for i := range a.Arena() {
			if i >= dstOff && i < dstOff+ln {
				if a.Arena()[i] != want[i-dstOff] {
					return false
				}
			} else if a.Arena()[i] != before[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
