package exp

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"fractos/internal/app/faceverify"
	"fractos/internal/core"
	"fractos/internal/fabric"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/testbed/stacks"
)

// TestSystemDeterminism runs full-stack experiments twice and requires
// bit-identical metrics: the whole system — kernel, fabric,
// Controllers, services, applications — is a deterministic function of
// its configuration.
func TestSystemDeterminism(t *testing.T) {
	cases := []func() *Table{Table3, Figure2, Figure8, AblationPlacement}
	for _, mk := range cases {
		a := mk()
		b := mk()
		if !reflect.DeepEqual(a.Metrics, b.Metrics) {
			t.Errorf("%s metrics differ across runs:\n%v\n%v", a.ID, a.Metrics, b.Metrics)
		}
		if !reflect.DeepEqual(a.Rows, b.Rows) {
			t.Errorf("%s rows differ across runs", a.ID)
		}
	}
}

// captureTrace runs a workload on a fresh testbed with the fabric
// trace hook installed and returns the rendered event log: one line
// per transfer, in delivery order, covering timestamps, endpoints,
// message types, sizes, and classes. Two runs of the same workload
// must produce byte-identical logs. Services are deployed before the
// trace hook installs, so the log covers the workload only.
func captureTrace(t *testing.T, spec testbed.Spec, run func(tk *sim.Task, d *testbed.Deployment)) string {
	t.Helper()
	var b strings.Builder
	testbed.RunT(t, spec, func(tk *sim.Task, d *testbed.Deployment) {
		d.Net().SetTrace(func(e fabric.TraceEvent) {
			fmt.Fprintf(&b, "%d %d>%d type=%d rdma=%v bytes=%d class=%d\n",
				e.At, e.From, e.To, e.Type, e.RDMA, e.Bytes, e.Class)
		})
		run(tk, d)
	})
	if b.Len() == 0 {
		t.Fatal("trace capture saw no fabric transfers")
	}
	return b.String()
}

// diffTraces reports the first line where two event logs diverge.
func diffTraces(t *testing.T, name, a, b string) {
	t.Helper()
	if a == b {
		return
	}
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if la[i] != lb[i] {
			t.Errorf("%s traces diverge at event %d:\n run A: %s\n run B: %s", name, i, la[i], lb[i])
			return
		}
	}
	t.Errorf("%s traces diverge in length: %d vs %d events", name, len(la), len(lb))
}

// Determinism workloads: the §6.2 multi-stage pipeline in all three
// composition models, and the face-verification application. Each
// returns the complete fabric event stream of one fresh run.
var fvTraceCfg = faceverify.Config{Batch: 8, Files: 2, Slots: 1}

func pipelineTrace(t *testing.T) string {
	return captureTrace(t, testbed.Spec{Nodes: 5}, func(tk *sim.Task, d *testbed.Deployment) {
		pl := newPipeline(tk, d.Cl, 4, 4<<10)
		pl.runStar(tk)
		pl.runFastStar(tk)
		pl.runChain(tk)
	})
}

func faceverifyTrace(t *testing.T) string {
	fv := &stacks.FaceVerify{Cfg: fvTraceCfg}
	spec := testbed.Spec{Nodes: 4, Placement: core.CtrlOnSNIC,
		Services: []testbed.Service{fv}}
	return captureTrace(t, spec, func(tk *sim.Task, d *testbed.Deployment) {
		rng := testbed.Rand(5)
		for i := 0; i < fvTraceCfg.Files; i++ {
			r := faceverify.MakeRequest(fv.DB, i, fvTraceCfg.Batch, rng)
			out, err := fv.Verify(tk, r)
			if err != nil {
				t.Errorf("faceverify request %d: %v", i, err)
				return
			}
			if !r.CheckResults(out) {
				t.Errorf("faceverify request %d: wrong verdicts", i)
			}
		}
	})
}

// TestTraceDeterminism replays both workloads and requires the
// complete fabric event stream (every message and RDMA transfer, with
// virtual timestamps) to be byte-identical across runs.
func TestTraceDeterminism(t *testing.T) {
	diffTraces(t, "pipeline", pipelineTrace(t), pipelineTrace(t))
	diffTraces(t, "faceverify", faceverifyTrace(t), faceverifyTrace(t))
}

// Pinned SHA-256 digests of the two workload traces. A change that
// claims "byte-identical fabric traces" is checked against these
// in-tree; a change that means to move a timestamp or a byte count
// updates them and says why.
//
// Last moved when a reply stopped taking a window credit: the caller
// sends no DeliverDone for it (e007f913… and 93c46722… until then;
// pipeline shape 56fae9d0…). The pipeline's 260 transfers are 252, 8
// DeliverDones fewer; its first diverging event is the 51st, a
// DeliverDone 6>1 at 93 743 ns that is gone, and its last transfer
// leaves at 658 182 ns instead of 662 808. Face verification's 68 keep
// their shape: set-up's Calls no longer queue behind the last reply's
// DeliverDone, so the first transfer, a memory_copy, leaves at
// 1 486 134 ns instead of 1 500 023, the last at 1 975 599 instead of
// 1 990 307.
const (
	pipelineTraceSHA256   = "bba8c6e3cecc26d9a5c78be1e32f94494ef97635309e4071c79154acd8b850b5"
	faceverifyTraceSHA256 = "83b293fa8289417c20494e003c6e1877cbc8d561a3b15b338008d355365c8c74"
)

// Pinned SHA-256 digests of the two workload traces' shapes (shapeOf):
// which transfers happen, between whom, of what type and class, in what
// order. A change that only resizes messages, and so moves the instants
// after them, leaves these alone.
const (
	pipelineShapeSHA256   = "866fa0fe3d5c2ca30ec0dde7bbdbe655640712fa17e30b942abbd2695943eca1"
	faceverifyShapeSHA256 = "8872419c51811b4ce175dd5a50b039e72e6116d83230434791bf7f064be6fd0f"
)

func checkDigest(t *testing.T, name, trace, want string) {
	t.Helper()
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(trace))); got != want {
		t.Errorf("%s trace digest = %s, pinned %s", name, got, want)
	}
}

// shapeOf strips a captureTrace log of every instant and byte count.
func shapeOf(trace string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(trace, "\n"), "\n") {
		f := slices.DeleteFunc(strings.Fields(line)[1:], func(x string) bool { return strings.HasPrefix(x, "bytes=") })
		b.WriteString(strings.Join(f, " ") + "\n")
	}
	return b.String()
}

// TestTraceDigestsPinned holds the fabric traces, and their shapes, to
// the pinned digests above.
func TestTraceDigestsPinned(t *testing.T) {
	pl, fv := pipelineTrace(t), faceverifyTrace(t)
	checkDigest(t, "pipeline", pl, pipelineTraceSHA256)
	checkDigest(t, "faceverify", fv, faceverifyTraceSHA256)
	checkDigest(t, "pipeline shape", shapeOf(pl), pipelineShapeSHA256)
	checkDigest(t, "faceverify shape", shapeOf(fv), faceverifyShapeSHA256)
}

// TestDeterminismMatrix is the full-stack determinism acceptance:
// fabric traces (held to the pinned digests), result tables and the
// processed-event count must be identical across runs at GOMAXPROCS 1
// and 4 — the task pool and the event counter are the only state
// shared between host threads, and neither may leak into a result.
func TestDeterminismMatrix(t *testing.T) {
	type snapshot struct {
		fvTrace, plTrace string
		figure8, chaos   *Table
		events           uint64
	}
	capture := func() snapshot {
		var s snapshot
		e0 := sim.TotalEvents()
		s.fvTrace = faceverifyTrace(t)
		s.plTrace = pipelineTrace(t)
		s.figure8 = Figure8()
		s.chaos = ChaosFaceVerify()
		s.events = sim.TotalEvents() - e0
		return s
	}

	base := capture() // ambient GOMAXPROCS
	checkDigest(t, "faceverify", base.fvTrace, faceverifyTraceSHA256)
	checkDigest(t, "pipeline", base.plTrace, pipelineTraceSHA256)
	for _, procs := range []int{1, 4} {
		oldProcs := runtime.GOMAXPROCS(procs)
		got := capture()
		runtime.GOMAXPROCS(oldProcs)

		name := fmt.Sprintf("procs=%d", procs)
		diffTraces(t, name+" faceverify", base.fvTrace, got.fvTrace)
		diffTraces(t, name+" pipeline", base.plTrace, got.plTrace)
		if !reflect.DeepEqual(base.figure8.Rows, got.figure8.Rows) ||
			!reflect.DeepEqual(base.figure8.Metrics, got.figure8.Metrics) {
			t.Errorf("%s: figure8 results differ from the base run", name)
		}
		if !reflect.DeepEqual(base.chaos.Rows, got.chaos.Rows) ||
			!reflect.DeepEqual(base.chaos.Metrics, got.chaos.Metrics) {
			t.Errorf("%s: chaos-fv results differ from the base run", name)
		}
		if got.events != base.events {
			t.Errorf("%s: processed %d events, base run processed %d",
				name, got.events, base.events)
		}
	}
}
