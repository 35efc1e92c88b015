// Package testbed is the declarative deployment layer shared by the
// evaluation harness (internal/exp), the runnable examples, and the
// integration tests. A Spec describes a cluster — node count,
// Controller placement, faults — plus an ordered list of
// Services to deploy (GPU adaptor, NVMe adaptor, FS, routed service,
// face-verification application, ...). Run builds the kernel, fabric,
// Controllers, and capability bootstrap in one call, deploys the
// services inside the simulation's main task, and hands control to the
// workload.
//
// The layer exists so experiments describe *what* runs where and
// workloads describe *load*, instead of every file hand-assembling
// core.NewCluster plus bespoke service wiring. Determinism contract:
// Run is a pure function of the Spec and the workload — services are
// deployed strictly in slice order inside the main task, the kernel
// draws no randomness (the fault layer and the workloads draw from
// sources of their own, seeded explicitly), and two Runs of the same
// Spec produce byte-identical fabric traces.
package testbed

import (
	"fmt"
	"math/rand"
	"time"

	"fractos/internal/assert"
	"fractos/internal/core"
	"fractos/internal/fabric"
	"fractos/internal/proc"
	"fractos/internal/services"
	"fractos/internal/sim"
)

// TB is the subset of *testing.T the testbed needs. It is duck-typed
// so the package never links "testing" into non-test binaries (the
// examples use Run; tests use RunT).
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
}

// Service is one deployable component of a testbed. Deploy runs inside
// the simulation's main task, before the workload, in Spec.Services
// order; it should fill the spec's exported handle fields so the
// workload can use the service. Deployment failures are harness bugs
// and are reported through internal/assert.
type Service interface {
	Deploy(tk *sim.Task, d *Deployment)
}

// Spec declares a cluster deployment. The zero value is a 3-node
// cluster with per-node host-CPU Controllers and no services —
// exactly core.NewCluster's defaults. The fabric is always calibrated
// by fabric.DefaultProfile.
type Spec struct {
	Nodes     int
	Placement core.Placement
	Ctrl      core.Config // Controller template; Loc is set per controller
	// Seed is read by nothing. It stays because the benchmark module
	// sets it (ROADMAP item 14(f)).
	Seed int64
	// Chaos, when Enabled, installs the fault-injection layer on the
	// fabric and arms the Controllers' retransmission protocol
	// (docs/FAULTS.md). The zero value changes nothing: traces stay
	// byte-identical to a fault-free deployment.
	Chaos fabric.Faults
	// Heartbeat, when non-nil, starts the heartbeat failure detector
	// (Deployment.Watch) before the services deploy and stops it after
	// the workload returns (so the kernel's event loop drains).
	Heartbeat *services.WatchConfig
	// Services are deployed in order inside the main task before the
	// workload runs.
	Services []Service
}

// Deployment is a running testbed: the cluster plus whatever the
// Spec's services exposed at deploy time.
type Deployment struct {
	Cl *core.Cluster
	// Watch is non-nil iff Spec.Heartbeat was set.
	Watch *services.NodeWatch
}

// K returns the simulation kernel.
func (d *Deployment) K() *sim.Kernel { return d.Cl.K }

// Net returns the fabric.
func (d *Deployment) Net() *fabric.Net { return d.Cl.Net }

// Attach creates a Process on a node with memBytes of registered
// memory, attached to the node's Controller.
func (d *Deployment) Attach(node int, name string, memBytes int) *proc.Process {
	return proc.Attach(d.Cl, node, name, memBytes)
}

// Spawn starts an auxiliary task (load-driver workers, background
// services).
//
//fractos:ordered
func (d *Deployment) Spawn(name string, fn func(tk *sim.Task)) { d.Cl.K.Spawn(name, fn) }

// Run builds the cluster described by s, deploys its services in order
// inside the main task, invokes fn as the workload, and runs the
// simulation to completion. It then audits the run, and panics (via
// internal/assert) if the main task deadlocked, a kernel-context pool
// still has records lent, or a Process has a syscall with no completion
// or a completion no syscall waited for (sim.Kernel.Unparked): at
// quiescence, a pending inter-Controller call or syscall is a caller
// nobody will answer, and any other record lent is one nothing will
// release. This is the single entry point every experiment, example,
// and heavy integration test goes through.
func Run(s Spec, fn func(tk *sim.Task, d *Deployment)) {
	if failure := run(s, fn); failure != "" {
		assert.Failf("%s", failure)
	}
}

// RunT is Run for tests: a failed audit fails the test instead of
// panicking the process.
func RunT(tb TB, s Spec, fn func(tk *sim.Task, d *Deployment)) {
	tb.Helper()
	if failure := run(s, fn); failure != "" {
		tb.Fatalf("%s", failure)
	}
}

// run runs the deployment and returns why the run failed its audit, or
// "".
func run(s Spec, fn func(tk *sim.Task, d *Deployment)) string {
	cl := core.NewCluster(core.ClusterConfig{
		Nodes:     s.Nodes,
		Placement: s.Placement,
		Ctrl:      s.Ctrl,
		Faults:    s.Chaos,
	})
	d := &Deployment{Cl: cl}
	if s.Heartbeat != nil {
		d.Watch = services.StartNodeWatch(cl, *s.Heartbeat)
	}
	done := false
	cl.K.Spawn("tb-main", func(tk *sim.Task) {
		for _, svc := range s.Services {
			svc.Deploy(tk, d)
		}
		fn(tk, d)
		done = true
		if d.Watch != nil {
			d.Watch.Stop()
		}
	})
	cl.K.Run()
	defer cl.K.Shutdown()
	if !done {
		return "testbed: main task did not complete (deadlock)"
	}
	if lent := cl.K.Unparked(); lent != "" {
		return "testbed: the run ends with records lent: " + lent
	}
	return ""
}

// --- shared formatting / unit helpers -------------------------------
//
// Folded here from the per-package copies that used to live in
// internal/exp, the examples, and the integration tests.

// Rand returns a deterministic random source for workload generation.
// (The simdet analyzer forbids the global math/rand functions.)
func Rand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// USec converts microseconds to virtual time.
func USec(f float64) sim.Time { return sim.Time(f * float64(time.Microsecond)) }

// Us formats a virtual duration in microseconds with two decimals.
func Us(d sim.Time) string { return fmt.Sprintf("%.2f", float64(d)/1e3) }

// Ms formats a virtual duration in milliseconds with three decimals.
func Ms(d sim.Time) string { return fmt.Sprintf("%.3f", float64(d)/1e6) }

// Mbps formats bytes moved over a duration as whole MB/s.
func Mbps(bytes int, d sim.Time) string { return fmt.Sprintf("%.0f", MbpsVal(bytes, d)) }

// MbpsVal computes bytes moved over a duration in MB/s.
func MbpsVal(bytes int, d sim.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / (float64(d) / 1e9) / 1e6
}

// SizeLabel formats a byte count compactly (4K, 1M, 17B).
func SizeLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
