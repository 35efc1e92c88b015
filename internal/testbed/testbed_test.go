package testbed_test

import (
	"fmt"
	"runtime"
	"testing"

	"fractos/internal/fabric"
	"fractos/internal/services"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/wire"
)

// orderSvc records the order services deploy in.
type orderSvc struct {
	id  int
	log *[]int
}

func (s *orderSvc) Deploy(tk *sim.Task, d *testbed.Deployment) {
	if d.Cl == nil || tk == nil {
		panic("deploy without a running cluster")
	}
	*s.log = append(*s.log, s.id)
}

// TestServicesDeployInOrder: Spec.Services deploy strictly in slice
// order, inside the main task, before the workload runs.
func TestServicesDeployInOrder(t *testing.T) {
	var log []int
	spec := testbed.Spec{Nodes: 2, Services: []testbed.Service{
		&orderSvc{1, &log}, &orderSvc{2, &log}, &orderSvc{3, &log},
	}}
	ran := false
	testbed.RunT(t, spec, func(tk *sim.Task, d *testbed.Deployment) {
		ran = true
		if len(log) != 3 {
			t.Errorf("workload ran before all services deployed: %v", log)
		}
	})
	if !ran {
		t.Fatal("workload did not run")
	}
	if len(log) != 3 || log[0] != 1 || log[1] != 2 || log[2] != 3 {
		t.Errorf("deploy order = %v, want [1 2 3]", log)
	}
}

// TestWatchAndHandles: Watch is wired iff a heartbeat is requested;
// the deployment's accessors reflect the built cluster.
func TestWatchAndHandles(t *testing.T) {
	testbed.RunT(t, testbed.Spec{Nodes: 3, Heartbeat: &services.WatchConfig{}},
		func(tk *sim.Task, d *testbed.Deployment) {
			if d.Watch == nil {
				t.Error("Spec.Heartbeat did not install a NodeWatch")
			}
			if d.K() != d.Cl.K || d.Net() != d.Cl.Net {
				t.Error("accessors disagree with the cluster")
			}
			if d.Net().Lossy() {
				t.Error("a zero Spec.Chaos installed a fault layer")
			}
			p := d.Attach(2, "probe", 64)
			if err := p.Null(tk); err != nil {
				t.Errorf("attached process unusable: %v", err)
			}
		})
	testbed.RunT(t, testbed.Spec{Nodes: 2},
		func(tk *sim.Task, d *testbed.Deployment) {
			if d.Watch != nil {
				t.Error("NodeWatch installed without Spec.Heartbeat")
			}
		})
}

// fakeTB captures RunT's failure path.
type fakeTB struct {
	failed bool
	msg    string
}

func (f *fakeTB) Helper() {}
func (f *fakeTB) Fatalf(format string, args ...any) {
	f.failed, f.msg = true, fmt.Sprintf(format, args...)
}

// TestRunTReportsDeadlock: a main task that blocks forever fails the
// test instead of hanging or panicking.
func TestRunTReportsDeadlock(t *testing.T) {
	var f fakeTB
	testbed.RunT(&f, testbed.Spec{Nodes: 1}, func(tk *sim.Task, d *testbed.Deployment) {
		ch := sim.NewChan[int](d.K(), "never", 0)
		ch.Recv(tk) // no sender: the kernel runs out of events
	})
	if !f.failed {
		t.Fatal("deadlocked main task did not fail the run")
	}
}

// TestRunTReportsGoexit: a task that leaves through runtime.Goexit —
// what t.Fatal does inside a task — fails the run's test alone, naming
// the task, instead of panicking the test binary.
func TestRunTReportsGoexit(t *testing.T) {
	var f fakeTB
	testbed.RunT(&f, testbed.Spec{Nodes: 1}, func(tk *sim.Task, d *testbed.Deployment) {
		d.Spawn("quitter", func(*sim.Task) { runtime.Goexit() })
		tk.Sleep(1)
		t.Error("the workload ran on after a task's Goexit")
	})
	if want := `testbed: task "quitter" exited through runtime.Goexit`; f.msg != want {
		t.Errorf("RunT reported %q, want %q", f.msg, want)
	}
}

// keeper is a fabric Handler that keeps every frame it is handed.
type keeper struct{ kept []*fabric.Frame }

func (h *keeper) Deliver(f *fabric.Frame) { h.kept = append(h.kept, f) }

// TestRunTReportsLentRecords: a run that ends with a pooled record lent
// — a frame its receiver never releases — fails the test, naming the
// pool and the count.
func TestRunTReportsLentRecords(t *testing.T) {
	var f fakeTB
	testbed.RunT(&f, testbed.Spec{Nodes: 1}, func(tk *sim.Task, d *testbed.Deployment) {
		loc := fabric.Location{Node: 0}
		rx := d.Net().AttachHandler("keeper", loc, 0, &keeper{})
		tx := d.Net().Attach("sender", loc, 0)
		if !d.Net().Send(tx.ID, rx.ID, &wire.Null{Token: 1}) {
			t.Error("the frame was not sent")
		}
	})
	if want := "testbed: the run ends with records lent: fabric frame 1"; f.msg != want {
		t.Errorf("RunT reported %q, want %q", f.msg, want)
	}
}

func TestSizeLabel(t *testing.T) {
	cases := map[int]string{
		1:       "1B",
		512:     "512B",
		1 << 10: "1K",
		4 << 10: "4K",
		1 << 20: "1M",
		5 << 20: "5M",
		1500:    "1500B",
	}
	for n, want := range cases {
		if got := testbed.SizeLabel(n); got != want {
			t.Errorf("testbed.SizeLabel(%d) = %q, want %q", n, got, want)
		}
	}
}
