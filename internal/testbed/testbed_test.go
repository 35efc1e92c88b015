package testbed_test

import (
	"reflect"
	"testing"

	"fractos/internal/core"
	"fractos/internal/services"
	"fractos/internal/sim"
	"fractos/internal/testbed"
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

// TestSpecOfRoundTrip: SpecOf preserves every topology field.
func TestSpecOfRoundTrip(t *testing.T) {
	cfg := core.ClusterConfig{Nodes: 5, Placement: core.CtrlShared}
	cfg.Ctrl.CapQuota = 7
	s := testbed.SpecOf(cfg)
	// ClusterConfig is no longer ==-comparable (Faults holds a Plan
	// slice), so compare structurally.
	if got := s.ClusterConfig(); !reflect.DeepEqual(got, cfg) {
		t.Errorf("round trip changed the config: %+v vs %+v", got, cfg)
	}
}

// fakeTB captures RunT's failure path.
type fakeTB struct{ failed bool }

func (f *fakeTB) Helper()               {}
func (f *fakeTB) Fatalf(string, ...any) { f.failed = true }

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
