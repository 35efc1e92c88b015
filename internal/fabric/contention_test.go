package fabric

import (
	"testing"
	"time"

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
