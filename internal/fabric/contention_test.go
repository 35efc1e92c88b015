package fabric

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"fractos/internal/cap"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// rdmaCopy is RDMACopyThen for a task: a future's Due is the
// completion, and tk waits for it.
func rdmaCopy(tk *sim.Task, n *Net, initiator, src EndpointID, srcOff int, dst EndpointID, dstOff, nBytes int) error {
	f := sim.NewFuture[int]()
	if err := n.RDMACopyThen(f.Due(nBytes), initiator, src, srcOff, dst, dstOff, nBytes); err != nil {
		return err
	}
	_, err := f.Wait(tk)
	return err
}

// TestConcurrentFlowsShareUplink: two flows out of the same node share
// its 10 Gbps uplink, so together they take about twice as long as one
// alone.
func TestConcurrentFlowsShareUplink(t *testing.T) {
	const n = 1 << 20
	oneFlow := func(flows int) sim.Time {
		k := sim.New(1)
		net := New(k, DefaultProfile())
		src := net.Attach("src", Location{0, Host}, flows*n)
		var wg sim.WaitGroup
		wg.Add(flows)
		var end sim.Time
		for f := 0; f < flows; f++ {
			f := f
			dst := net.Attach("dst", Location{1 + f, Host}, n)
			k.Spawn("flow", func(tk *sim.Task) {
				if err := rdmaCopy(tk, net, src.ID, src.ID, f*n, dst.ID, 0, n); err != nil {
					t.Error(err)
				}
				if tk.Now() > end {
					end = tk.Now()
				}
				wg.Done()
			})
		}
		k.Spawn("waiter", func(tk *sim.Task) { wg.Wait(tk) })
		k.Run()
		k.Shutdown()
		return end
	}
	one := oneFlow(1)
	two := oneFlow(2)
	ratio := float64(two) / float64(one)
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("2 flows took %.2fx one flow; uplink sharing should give ~2x", ratio)
	}
}

// TestDistinctUplinksDontContend: flows from different nodes to
// different nodes proceed in parallel.
func TestDistinctUplinksDontContend(t *testing.T) {
	const n = 1 << 20
	k := sim.New(1)
	net := New(k, DefaultProfile())
	a := net.Attach("a", Location{0, Host}, n)
	b := net.Attach("b", Location{1, Host}, n)
	c := net.Attach("c", Location{2, Host}, n)
	d := net.Attach("d", Location{3, Host}, n)
	var wg sim.WaitGroup
	wg.Add(2)
	var end sim.Time
	for _, pair := range [][2]*Endpoint{{a, b}, {c, d}} {
		pair := pair
		k.Spawn("flow", func(tk *sim.Task) {
			if err := rdmaCopy(tk, net, pair[0].ID, pair[0].ID, 0, pair[1].ID, 0, n); err != nil {
				t.Error(err)
			}
			if tk.Now() > end {
				end = tk.Now()
			}
			wg.Done()
		})
	}
	k.Spawn("waiter", func(tk *sim.Task) { wg.Wait(tk) })
	k.Run()
	k.Shutdown()
	// One 1 MiB transfer at 10 Gbps ≈ 839 µs; parallel flows finish
	// together, well under 2x.
	if end > sim.Time(1200*time.Microsecond) {
		t.Errorf("independent flows took %v; they must not serialize", end)
	}
}

// TestSNICEntrySlowerThanHost encodes Table 3's asymmetry in the
// profile itself.
func TestSNICEntrySlowerThanHost(t *testing.T) {
	p := DefaultProfile()
	if p.SNICEntry <= p.HostEntry {
		t.Error("sNIC entry must cost more than host entry (wimpy ARM cores)")
	}
	if p.SNICExit >= p.HostExit {
		t.Error("sNIC exit should cost less than host exit (no PCIe hop)")
	}
}

// TestLocationString is trivial but keeps diagnostics stable.
func TestLocationString(t *testing.T) {
	if (Location{2, SNIC}).String() != "n2/snic" || (Location{0, Host}).String() != "n0/host" {
		t.Error("location formatting changed")
	}
}

// TestResetStats zeroes counters.
func TestResetStats(t *testing.T) {
	k := sim.New(1)
	net := New(k, DefaultProfile())
	a := net.Attach("a", Location{0, Host}, 0)
	b := net.Attach("b", Location{1, Host}, 0)
	k.Spawn("s", func(tk *sim.Task) { net.Send(a.ID, b.ID, &wire.Raw{}) })
	k.Run()
	if net.Stats().TotalMsgs() == 0 {
		t.Fatal("no traffic recorded")
	}
	net.ResetStats()
	if net.Stats() != (Stats{}) {
		t.Error("ResetStats left residue")
	}
	k.Shutdown()
}

// TestLookupUnknownEndpoint returns false.
func TestLookupUnknownEndpoint(t *testing.T) {
	k := sim.New(1)
	net := New(k, DefaultProfile())
	if _, ok := net.Lookup(42); ok {
		t.Error("lookup of unknown endpoint succeeded")
	}
	k.Shutdown()
}

// TestSendToUnknownEndpointFails cleanly reports false.
func TestSendToUnknownEndpointFails(t *testing.T) {
	k := sim.New(1)
	net := New(k, DefaultProfile())
	a := net.Attach("a", Location{0, Host}, 0)
	if net.Send(a.ID, 999, &wire.Raw{}) {
		t.Error("send to unknown endpoint reported success")
	}
	if net.Send(999, a.ID, &wire.Raw{}) {
		t.Error("send from unknown endpoint reported success")
	}
	k.Shutdown()
}

// arrivals is a Handler that records each frame's type and the instant
// it arrived.
type arrivals struct {
	k   *sim.Kernel
	got []arrival
}

type arrival struct {
	typ wire.Type
	at  sim.Time
}

func (a *arrivals) Deliver(f *Frame) {
	m, err := wire.Unmarshal(f.Bytes())
	f.Release()
	if err == nil {
		a.got = append(a.got, arrival{m.WireType(), a.k.Now()})
	}
}

// TestMessagesOvertakeRDMA: on each of a node's two links, the switch
// uplink and the PCIe path, a message waits only for earlier messages,
// and pushes the one-sided RDMA horizon back by its own serialisation.
// At instant 0 two 16 KiB RDMA writes are booked, then an 8 B
// CtrlValidate is sent, then a third write is booked, and then a 307 B
// Deliver (Data class: 300 B of immediates) and a 3 B DeliverDone follow
// on the same pair. From DefaultProfile (ns; exit 600, entry 610, the
// passive NIC 250 per direction, CrossNode 850 on the uplink and 0 on
// the PCIe path; 16 KiB, 8 B, 307 B and 3 B serialise in 13 107, 6, 245
// and 2 at 1.25 GB/s, in 2 730, 1, 51 and 0 at 6 GB/s):
//
//   - uplink: the writes go over [0, 13 107] and [13 107, 26 214] and
//     complete 850+250+250+610 later, at 15 067 and 28 174. The
//     CtrlValidate goes over [0, 6] and arrives at 600+6+850+610 =
//     2 066, and the RDMA horizon moves to 26 220, so the third write
//     goes over [26 220, 39 327] and completes at 41 287. The Deliver
//     goes over [6, 251] and arrives at 2 311, the DeliverDone over
//     [251, 253] and arrives at 2 313.
//   - PCIe: the writes go over [0, 2 730] and [2 730, 5 460] and
//     complete 250+250+610 later, at 3 840 and 6 570; the CtrlValidate
//     arrives at 600+1+610 = 1 211 and moves the horizon to 5 461, so
//     the third write completes at 5 461+2 730+1 110 = 9 301. The
//     Deliver and the DeliverDone both arrive at 1 262, in that order.
//
// The DeliverDone never overtakes the Deliver: a Reply then its Release
// arrive in the order they were sent, whatever their class.
func TestMessagesOvertakeRDMA(t *testing.T) {
	ctrl := &wire.CtrlValidate{Token: 1, Src: 1, Ref: cap.Ref{Ctrl: 2, Obj: 3}, Need: cap.Read}
	deliver := &wire.Deliver{Seq: 1, Tag: 2, Imms: make([]byte, 300)}
	done := &wire.DeliverDone{Seq: 1}
	if wire.SizeOf(ctrl) != 8 || wire.SizeOf(deliver) != 307 || wire.SizeOf(done) != 3 || wire.ClassOf(deliver) != wire.Data {
		t.Fatalf("frames of %d, %d (%v) and %d B; the derivation assumes 8, 307 (Data) and 3",
			wire.SizeOf(ctrl), wire.SizeOf(deliver), wire.ClassOf(deliver), wire.SizeOf(done))
	}
	const chunk = 16 << 10
	for _, tc := range []struct {
		name    string
		dstNode int
		writes  [3]sim.Time
		arrive  []arrival
	}{
		{"uplink", 1, [3]sim.Time{15067, 28174, 41287},
			[]arrival{{wire.TCtrlValidate, 2066}, {wire.TDeliver, 2311}, {wire.TDeliverDone, 2313}}},
		{"PCIe", 0, [3]sim.Time{3840, 6570, 9301},
			[]arrival{{wire.TCtrlValidate, 1211}, {wire.TDeliver, 1262}, {wire.TDeliverDone, 1262}}},
	} {
		k, n := newNet()
		rx := &arrivals{k: k}
		a := n.Attach("a", Location{0, Host}, 2*chunk)
		b := n.AttachHandler("b", Location{tc.dstNode, Host}, 2*chunk, rx)
		var writes [3]sim.Time
		k.Spawn("tx", func(tk *sim.Task) {
			var err [3]error
			var sent [3]bool
			writes[0], err[0] = n.RDMAWriteAt(a.ID, 0, b.ID, 0, chunk)
			writes[1], err[1] = n.RDMAWriteAt(a.ID, chunk, b.ID, chunk, chunk)
			sent[0] = n.Send(a.ID, b.ID, ctrl)
			writes[2], err[2] = n.RDMAWriteAt(a.ID, 0, b.ID, 0, chunk)
			sent[1], sent[2] = n.Send(a.ID, b.ID, deliver), n.Send(a.ID, b.ID, done)
			if sent != [3]bool{true, true, true} || errors.Join(err[:]...) != nil {
				t.Errorf("%s: sent %v, writes %v", tc.name, sent, err)
			}
		})
		k.Run()
		k.Shutdown()
		if writes != tc.writes {
			t.Errorf("%s: writes complete at %v, want %v", tc.name, writes, tc.writes)
		}
		if !slices.Equal(rx.got, tc.arrive) {
			t.Errorf("%s: arrivals %v, want %v", tc.name, rx.got, tc.arrive)
		}
	}
}

// TestMessagesAloneKeepFIFOArithmetic: on links that carry no RDMA,
// every message arrives exactly where one FIFO per link puts it — start
// when the link is free, serialise, then exit, the wire and entry. 400
// messages of 1 B to 6 KiB leave node 0 at random gaps, each to node 1
// over the uplink or to node 0 over the PCIe path.
func TestMessagesAloneKeepFIFOArithmetic(t *testing.T) {
	k, n := newNet()
	p := DefaultProfile()
	rxUp, rxLoc := &arrivals{k: k}, &arrivals{k: k}
	a := n.Attach("a", Location{0, Host}, 0)
	up := n.AttachHandler("up", Location{1, Host}, 0, rxUp)
	loc := n.AttachHandler("loc", Location{0, Host}, 0, rxLoc)
	var wantUp, wantLoc []arrival
	var busyUp, busyLoc sim.Time
	fifo := func(busy *sim.Time, now sim.Time, nBytes int, bw float64, lat sim.Time) sim.Time {
		*busy = max(now, *busy) + sim.Time(float64(nBytes)/bw*1e9)
		return *busy + p.HostExit + lat + p.HostEntry
	}
	rng := rand.New(rand.NewSource(3))
	k.Spawn("tx", func(tk *sim.Task) {
		for i := 0; i < 400; i++ {
			m := &wire.Raw{Data: make([]byte, rng.Intn(6<<10)), IsData: rng.Intn(2) == 0}
			if rng.Intn(2) == 0 {
				wantUp = append(wantUp, arrival{wire.TRaw, fifo(&busyUp, tk.Now(), wire.SizeOf(m), p.WireBW, p.CrossNode)})
				n.Send(a.ID, up.ID, m)
			} else {
				wantLoc = append(wantLoc, arrival{wire.TRaw, fifo(&busyLoc, tk.Now(), wire.SizeOf(m), p.LocalBW, p.NICTurn)})
				n.Send(a.ID, loc.ID, m)
			}
			tk.Sleep(sim.Time(rng.Intn(5000)))
		}
	})
	k.Run()
	k.Shutdown()
	if !slices.Equal(rxUp.got, wantUp) || !slices.Equal(rxLoc.got, wantLoc) {
		t.Errorf("arrivals differ from one FIFO per link:\nuplink %v\nwant   %v\nPCIe   %v\nwant   %v", rxUp.got, wantUp, rxLoc.got, wantLoc)
	}
}
