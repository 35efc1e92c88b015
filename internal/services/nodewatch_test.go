package services

import (
	"testing"

	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/fabric"
	"fractos/internal/sim"
)

const ms = sim.Time(1000 * 1000)

// watchCluster builds a 3-node cluster with faults installed and a
// heartbeat NodeWatch, runs body inside the main task, and drains the
// kernel. The watch is stopped after body returns. It returns every
// detector transition, collected through Subscribe.
func watchCluster(t *testing.T, f fabric.Faults, wc WatchConfig, body func(tk *sim.Task, cl *core.Cluster, w *NodeWatch)) []WatchEvent {
	t.Helper()
	cl := core.NewCluster(core.ClusterConfig{Nodes: 3, Faults: f})
	w := StartNodeWatch(cl, wc)
	var events []WatchEvent
	w.Subscribe(func(e WatchEvent) { events = append(events, e) })
	done := false
	cl.K.Spawn("main", func(tk *sim.Task) {
		body(tk, cl, w)
		done = true
		w.Stop()
	})
	cl.K.Run()
	cl.K.Shutdown()
	if !done {
		t.Fatal("main task did not complete")
	}
	return events
}

// Healthy cluster: the detector stays quiet — no suspicions, no
// fences — over many rounds.
func TestHeartbeatQuietWhenHealthy(t *testing.T) {
	events := watchCluster(t, fabric.Faults{}, WatchConfig{Every: 2 * ms, Suspect: 3},
		func(tk *sim.Task, cl *core.Cluster, w *NodeWatch) {
			tk.Sleep(50 * ms)
		})
	for _, e := range events {
		t.Errorf("unexpected event on healthy cluster: %v", e)
	}
}

// A crashed Controller is suspected after Suspect missed rounds,
// fenced, auto-rebooted, and observed as recovered with a bumped
// epoch.
func TestHeartbeatDetectsCrashAndReboots(t *testing.T) {
	events := watchCluster(t, fabric.Faults{},
		WatchConfig{Every: 2 * ms, Suspect: 3, RebootAfter: 4 * ms},
		func(tk *sim.Task, cl *core.Cluster, w *NodeWatch) {
			tk.Sleep(5 * ms)
			cl.Ctrls[1].Crash()
			tk.Sleep(60 * ms)
			if cl.Ctrls[1].Down() {
				t.Error("controller not rebooted by the detector")
			}
			// Controllers boot at epoch 1; one reboot bumps to 2.
			if got := cl.Ctrls[1].Epoch(); got != 2 {
				t.Errorf("epoch after reboot = %d, want 2", got)
			}
		})
	var kinds []WatchEventKind
	for _, e := range events {
		if e.Ctrl == cap.ControllerID(2) && e.Kind != WatchSuspect {
			kinds = append(kinds, e.Kind)
		}
		if e.Ctrl != cap.ControllerID(2) {
			t.Errorf("event for healthy controller: %v", e)
		}
	}
	want := []WatchEventKind{WatchFenced, WatchRebooted, WatchRecovered}
	if len(kinds) != len(want) {
		t.Fatalf("transitions = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", kinds, want)
		}
	}
}

// A partitioned-but-alive Controller is fenced: silence from the
// monitor's side of the partition is indistinguishable from a crash,
// and fencing (out-of-band power-off) keeps the stale instance from
// acting after the heal.
func TestHeartbeatFencesPartitionedController(t *testing.T) {
	f := fabric.Faults{Seed: 1, Plan: fabric.Plan{
		{At: 10 * ms, Kind: fabric.Partition, Group: []int{2}},
	}}
	events := watchCluster(t, f, WatchConfig{Every: 2 * ms, Suspect: 3},
		func(tk *sim.Task, cl *core.Cluster, w *NodeWatch) {
			tk.Sleep(40 * ms)
			if !cl.Ctrls[2].Down() {
				t.Error("partitioned controller was not fenced")
			}
		})
	fenced := false
	for _, e := range events {
		if e.Kind == WatchFenced && e.Ctrl == cap.ControllerID(3) {
			fenced = true
		}
	}
	if !fenced {
		t.Error("no fence event for the partitioned controller")
	}
}

// Transient loss below the suspicion threshold must not fence anyone:
// misses reset on the next pong.
func TestHeartbeatToleratesTransientLoss(t *testing.T) {
	f := fabric.Faults{Drop: 0.05, Seed: 7}
	events := watchCluster(t, f, WatchConfig{Every: 2 * ms, Suspect: 4},
		func(tk *sim.Task, cl *core.Cluster, w *NodeWatch) {
			tk.Sleep(100 * ms)
		})
	for _, e := range events {
		if e.Kind != WatchSuspect {
			t.Errorf("5%% loss caused %v", e)
		}
	}
}

// Same seed, same schedule: the detector's event log is deterministic.
func TestHeartbeatDeterministic(t *testing.T) {
	run := func() []WatchEvent {
		f := fabric.Faults{Drop: 0.10, Seed: 3, Plan: fabric.Plan{
			{At: 8 * ms, Kind: fabric.Partition, Group: []int{1}},
			{At: 30 * ms, Kind: fabric.Heal},
		}}
		events := watchCluster(t, f, WatchConfig{Every: 2 * ms, Suspect: 3, RebootAfter: 6 * ms},
			func(tk *sim.Task, cl *core.Cluster, w *NodeWatch) {
				tk.Sleep(80 * ms)
			})
		return events
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestHeartbeatHoldsNoTask: the detector runs in kernel context — a
// fabric Handler and a round timer — so during a heartbeat run the
// kernel's live tasks are the workload's alone.
func TestHeartbeatHoldsNoTask(t *testing.T) {
	watchCluster(t, fabric.Faults{}, WatchConfig{Every: 2 * ms, Suspect: 3},
		func(tk *sim.Task, cl *core.Cluster, w *NodeWatch) {
			tk.Sleep(10 * ms)
			if n := cl.K.Live(); n != 1 {
				t.Errorf("%d live tasks during a heartbeat run, want 1 (the workload)", n)
			}
		})
}
