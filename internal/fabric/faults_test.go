package fabric

import (
	"strings"
	"testing"

	"fractos/internal/sim"
	"fractos/internal/wire"
)

// chaosPair builds a two-node fabric with the given faults and
// returns (net, src, dst).
func chaosPair(t *testing.T, f Faults) (*Net, *Endpoint, *Endpoint) {
	t.Helper()
	k := sim.New(1)
	n := New(k, DefaultProfile())
	n.InstallFaults(f)
	src := n.Attach("src", Location{Node: 0}, 0)
	dst := n.Attach("dst", Location{Node: 1}, 0)
	return n, src, dst
}

// pump sends cnt raw messages src→dst and returns how many arrive.
func pump(n *Net, src, dst *Endpoint, cnt int) int {
	k := n.Kernel()
	got := 0
	k.Spawn("rx", func(t *sim.Task) {
		for {
			_, ok := dst.Inbox.Recv(t)
			if !ok {
				return
			}
			got++
		}
	})
	k.Spawn("tx", func(t *sim.Task) {
		for i := 0; i < cnt; i++ {
			n.Send(src.ID, dst.ID, &wire.Raw{Data: []byte{byte(i)}})
			t.Sleep(10_000)
		}
	})
	k.Run()
	k.Shutdown()
	return got
}

// TestFaultsZeroValueIsNoop: a zero Faults injects nothing. A
// deployment's zero configuration installs no layer at all
// (testbed's TestWatchAndHandles checks Lossy stays false); installed
// directly it gives a fabric that loses nothing on its own but reports
// Lossy, because a topology change may still cut it.
func TestFaultsZeroValueIsNoop(t *testing.T) {
	if (Faults{}).Enabled() {
		t.Error("a zero Faults must not enable a deployment's fault layer")
	}
	n, src, dst := chaosPair(t, Faults{})
	if !n.Lossy() {
		t.Error("a Net built with faults must report Lossy")
	}
	if got := pump(n, src, dst, 50); got != 50 {
		t.Fatalf("lossless fault layer delivered %d/50", got)
	}
}

// mustRefuse runs fn and checks that it panics with the assert message want.
func mustRefuse(t *testing.T, name, want string, fn func()) {
	t.Helper()
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, want) {
			t.Errorf("%s: panic %q, want %q", name, msg, want)
		}
	}()
	fn()
}

// TestTopologyNeedsFaults: a Net built without faults refuses topology
// changes — its Controllers retransmit nothing, so a cut could leave a
// call waiting for ever — and no Net takes faults once it has carried a
// frame.
func TestTopologyNeedsFaults(t *testing.T) {
	const noFaults = "topology change on a Net built without faults"
	_, n := newNet()
	mustRefuse(t, "SetLink", noFaults, func() { n.SetLink(1, false) })
	mustRefuse(t, "PartitionNodes", noFaults, func() { n.PartitionNodes([]int{1}) })
	mustRefuse(t, "HealPartitions", noFaults, n.HealPartitions)

	n, src, dst := chaosPair(t, Faults{})
	n.Send(src.ID, dst.ID, &wire.Null{})
	mustRefuse(t, "InstallFaults", "InstallFaults after the fabric carried traffic", func() { n.InstallFaults(Faults{}) })
}

func TestFaultsDropLosesFrames(t *testing.T) {
	n, src, dst := chaosPair(t, Faults{Drop: 0.5, Seed: 7})
	got := pump(n, src, dst, 200)
	st := n.FaultStats()
	if st.Dropped == 0 {
		t.Fatal("expected probabilistic drops")
	}
	if got+int(st.Dropped) != 200 {
		t.Fatalf("delivered %d + dropped %d != 200 sent", got, st.Dropped)
	}
	if got < 50 || got > 150 {
		t.Fatalf("drop=0.5 delivered %d/200 — far from expectation", got)
	}
}

func TestFaultsDupDeliversTwice(t *testing.T) {
	n, src, dst := chaosPair(t, Faults{Dup: 1.0, Seed: 3})
	if got := pump(n, src, dst, 20); got != 40 {
		t.Fatalf("dup=1.0 delivered %d, want 40", got)
	}
	if st := n.FaultStats(); st.Duplicated != 20 {
		t.Fatalf("Duplicated = %d, want 20", st.Duplicated)
	}
}

func TestFaultsDeterministicAcrossRuns(t *testing.T) {
	run := func() (int, FaultStats) {
		n, src, dst := chaosPair(t, Faults{Drop: 0.2, Dup: 0.1, Jitter: 5000, Seed: 42})
		got := pump(n, src, dst, 300)
		return got, n.FaultStats()
	}
	g1, s1 := run()
	g2, s2 := run()
	if g1 != g2 || s1 != s2 {
		t.Fatalf("same seed diverged: run1 %d %+v, run2 %d %+v", g1, s1, g2, s2)
	}
}

func TestPartitionCutsAndHeals(t *testing.T) {
	n, src, dst := chaosPair(t, Faults{})
	k := n.Kernel()
	n.PartitionNodes([]int{1})
	k.After(500_000, n.HealPartitions)
	var before, after int
	k.Spawn("rx", func(t *sim.Task) {
		for {
			_, ok := dst.Inbox.Recv(t)
			if !ok {
				return
			}
			if k.Now() < 500_000 {
				before++
			} else {
				after++
			}
		}
	})
	k.Spawn("tx", func(t *sim.Task) {
		for i := 0; i < 50; i++ {
			if !n.Send(src.ID, dst.ID, &wire.Raw{Data: []byte{1}}) {
				t.Sleep(0) // keep the shape; Send returns true under partition
			}
			t.Sleep(20_000)
		}
	})
	k.Run()
	k.Shutdown()
	if before != 0 {
		t.Fatalf("partitioned fabric delivered %d frames before heal", before)
	}
	if after == 0 {
		t.Fatal("no frames delivered after heal")
	}
	if st := n.FaultStats(); st.Cut == 0 {
		t.Fatal("expected Cut > 0 during partition")
	}
}

func TestLinkDownFailsRDMA(t *testing.T) {
	k := sim.New(1)
	n := New(k, DefaultProfile())
	n.InstallFaults(Faults{})
	src := n.Attach("src", Location{Node: 0}, 4096)
	dst := n.Attach("dst", Location{Node: 1}, 4096)
	n.SetLink(1, false)
	var failedDown, okUp bool
	k.Spawn("xfer", func(t *sim.Task) {
		if _, err := n.RDMARead(src.ID, 0, dst.ID, 0, 128).Wait(t); err != nil {
			failedDown = true
		}
		n.SetLink(1, true)
		if _, err := n.RDMARead(src.ID, 0, dst.ID, 0, 128).Wait(t); err == nil {
			okUp = true
		}
	})
	k.Run()
	k.Shutdown()
	if !failedDown {
		t.Fatal("RDMA across a down link must fail")
	}
	if !okUp {
		t.Fatal("RDMA must succeed after the link comes back")
	}
}

// TestLinkFlap: kernel timers take node 1's link down and bring it
// back up. Frames sent while it is down are cut and counted, and frames
// sent after it is back are delivered; before the flap nothing is lost.
func TestLinkFlap(t *testing.T) {
	const down, up = 210_000, 610_000 // between sends, which go every 25 µs
	n, src, dst := chaosPair(t, Faults{})
	k := n.Kernel()
	k.After(down, func() { n.SetLink(1, false) })
	k.After(up, func() { n.SetLink(1, true) })
	got := map[byte]bool{} // the frames delivered, by sequence number
	k.Spawn("rx", func(t *sim.Task) {
		for {
			d, ok := dst.Inbox.Recv(t)
			if !ok {
				return
			}
			got[d.Msg.(*wire.Raw).Data[0]] = true
		}
	})
	var cut, kept []byte // frames sent while the link was down, and up
	k.Spawn("tx", func(t *sim.Task) {
		for i := byte(0); i < 40; i++ {
			if t.Now() >= down && t.Now() < up {
				cut = append(cut, i)
			} else {
				kept = append(kept, i)
			}
			n.Send(src.ID, dst.ID, &wire.Raw{Data: []byte{i}})
			t.Sleep(25_000)
		}
	})
	k.Run()
	k.Shutdown()
	if len(cut) == 0 || len(kept) == 0 {
		t.Fatalf("sent %d frames while the link was down and %d while up; want both", len(cut), len(kept))
	}
	for _, i := range cut {
		if got[i] {
			t.Errorf("frame %d, sent while the link was down, was delivered", i)
		}
	}
	for _, i := range kept {
		if !got[i] {
			t.Errorf("frame %d, sent while the link was up, was lost", i)
		}
	}
	if st := n.FaultStats(); st.Cut != int64(len(cut)) {
		t.Errorf("Cut = %d, want %d", st.Cut, len(cut))
	}
}

// TestFaultNthFrame: Faults.Nth places one fault exactly. Of 10
// cross-node frames the 4th is lost, or with NthDup delivered twice; no
// other frame is touched, and same-node frames are not counted.
func TestFaultNthFrame(t *testing.T) {
	for _, dup := range []bool{false, true} {
		if !(Faults{Nth: 4, NthDup: dup}).Enabled() {
			t.Error("a Faults with Nth set must enable a deployment's fault layer")
		}
		n, src, dst := chaosPair(t, Faults{Nth: 4, NthDup: dup})
		local := n.Attach("local", Location{Node: 0}, 0)
		var got []byte
		k := n.Kernel()
		k.Spawn("rx", func(tk *sim.Task) {
			for {
				m, ok := dst.Inbox.Recv(tk)
				if !ok {
					return
				}
				got = append(got, m.Msg.(*wire.Raw).Data[0])
			}
		})
		k.Spawn("tx", func(tk *sim.Task) {
			for i := range 10 {
				n.Send(src.ID, local.ID, &wire.Raw{}) // same node: not a cross-node frame
				n.Send(src.ID, dst.ID, &wire.Raw{Data: []byte{byte(i + 1)}})
				tk.Sleep(10_000)
			}
		})
		k.Run()
		k.Shutdown()
		want, st := []byte{1, 2, 3, 5, 6, 7, 8, 9, 10}, FaultStats{Dropped: 1}
		if dup {
			want, st = []byte{1, 2, 3, 4, 4, 5, 6, 7, 8, 9, 10}, FaultStats{Duplicated: 1}
		}
		if string(got) != string(want) || n.FaultStats() != st {
			t.Errorf("NthDup %v: delivered %v with %+v, want %v with %+v", dup, got, n.FaultStats(), want, st)
		}
	}
}
