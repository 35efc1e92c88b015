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
	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/fabric"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/testbed/stacks"
	"fractos/internal/wire"
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

// revocationTrace runs the broadcasts of §3.5 and §3.6 on five
// Controllers: three objects, each held on every node, revoked by their
// owners one after another, then two Controllers crashed and rebooted.
// Each revocation's cleanup and each reboot's epoch announcement goes to
// four peers at one instant, in the order the sender takes its peers,
// and each reboot aborts six calls of six Processes at one instant, in
// the order node 0's Controller takes them.
func revocationTrace(t *testing.T) string {
	return captureTrace(t, testbed.Spec{Nodes: 5}, func(tk *sim.Task, d *testbed.Deployment) {
		ps := make([]*proc.Process, 5)
		for n := range ps {
			ps[n] = proc.Attach(d.Cl, n, fmt.Sprintf("p%d", n), 64)
		}
		for _, owner := range ps[:3] {
			mem, err := owner.MemoryCreate(tk, 0, 64, cap.MemRights)
			for _, p := range ps {
				if err == nil && p != owner {
					_, err = proc.GrantCap(owner, mem, p)
				}
			}
			if err == nil {
				err = owner.Revoke(tk, mem)
			}
			if err != nil {
				t.Error(err)
				return
			}
			tk.Sleep(testbed.USec(50))
		}
		// Six Processes of node 0 each wait in a Call on nodes 3 and 4,
		// whose servers answer nothing; each reboot's announcement aborts
		// six of node 0's calls.
		for _, n := range []int{3, 4} {
			srv := ps[n]
			srv.Handle(func(dv *proc.Delivery) { dv.Done(); dv.Finish() })
			req, err := srv.RequestCreate(tk, 1, nil, nil)
			for i := 0; i < 6 && err == nil; i++ {
				caller := proc.Attach(d.Cl, 0, fmt.Sprintf("caller%d-%d", n, i), 0)
				var c proc.Cap
				if c, err = proc.GrantCap(srv, req, caller); err == nil {
					d.Spawn("caller", func(ct *sim.Task) {
						if _, err := caller.Call(ct, c, nil, nil, 0); !wire.IsStatus(err, wire.StatusAborted) {
							t.Errorf("a Call to a rebooted Controller: %v, want aborted", err)
						}
					})
				}
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
		tk.Sleep(testbed.USec(50))
		for _, n := range []int{3, 4} {
			d.Cl.CtrlFor(n).Crash()
			d.Cl.CtrlFor(n).Reboot()
			tk.Sleep(testbed.USec(50))
		}
	})
}

// TestRevocationDeterminism replays revocationTrace and requires every
// run's fabric trace to be byte-identical to the first, and to the
// pinned digest: a broadcast that ranges over a map of peers publishes
// Go's randomized map order into the message stream.
func TestRevocationDeterminism(t *testing.T) {
	base := revocationTrace(t)
	checkDigest(t, "revocation", base, revocationTraceSHA256)
	for i := 0; i < 4; i++ {
		diffTraces(t, "revocation", base, revocationTrace(t))
	}
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
// Face verification's last moved, shape too, when a copy began to post
// each read just in time behind the one before, two in flight (76df7d47…
// and 9c4412a8… until then): set-up's copies end sooner, so the first
// transfer leaves at 1 461 638 ns instead of 1 486 118 and the last at
// 1 949 469 instead of 1 973 949, and each request's 32 KiB copy from
// the SSD to the GPU reads both chunks before its first write-out.
//
// Before that, both moved when wire.ReplyTag moved from bit 63 to bit 34 (538fbc2d…
// and 652a205c… until then; the shapes did not move): a reply tag's
// varint is 5 bytes, not 10, so every reply Request's request_create and
// every reply's Deliver is 5 bytes shorter. The pipeline's first
// diverging event is the 41st, a request_create of 10 bytes (15 before),
// and its last transfer leaves at 657 594 ns instead of 657 604; face
// verification's first transfer leaves at 1 486 118 ns instead of
// 1 486 135 (set-up's reply Requests), its last at 1 971 278 instead of
// 1 971 295.
//
// Before that, they moved when CallWith made its continuation a reply Request, armed
// by the invocation that declares it (bba8c6e3… and 83b293fa… until
// then; shapes 866fa0fe… and 8872419c…): the invocation's owner sends no
// CtrlAck and the caller no DeliverDone for the reply. The pipeline's
// 252 transfers are 250; its first diverging event is the 179th, the
// request_create of the chain's ReplyRequest, whose tag now carries
// wire.ReplyTag (15 bytes where it was 10: a bit-63 tag's varint is 10
// bytes, not 5), and its last transfer
// leaves at 657 604 ns instead of 658 182. Face verification's 68 are
// 64, the two CtrlAcks and two DeliverDones of its two requests gone;
// set-up's reply Requests are 5 bytes longer, so the first transfer
// leaves at 1 486 135 ns instead of 1 486 134, the last at 1 973 966
// instead of 1 975 599. Before that, a reply stopped taking a window
// credit (e007f913… and 93c46722…; pipeline shape 56fae9d0…).
const (
	pipelineTraceSHA256   = "0f2358286a3918a4798bd8f2202fe052b609dcdfc64b1a404b0819a43f0e457f"
	faceverifyTraceSHA256 = "47ba38c5da0a84e112015686d814b8fd333a7a4b912d3d57ed9289bad69e6d88"
)

// Pinned SHA-256 digests of the two workload traces' shapes (shapeOf):
// which transfers happen, between whom, of what type and class, in what
// order. A change that only resizes messages, and so moves the instants
// after them, leaves these alone.
const (
	pipelineShapeSHA256   = "59493854ac978253fd9583c4e7f0096172cef39e8987aeca0e23b0ca3c2fb9ea"
	faceverifyShapeSHA256 = "d7ddaf243cb8c4f379ccab34cf98b03bca0602c7e9c34a58fe230f709fec1b96"
)

// Pinned SHA-256 digest of revocationTrace.
const revocationTraceSHA256 = "1e481426b844a6d4f5e7410138fe526c486af0575c8dd4d3c5155ed6e51f5cc6"

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
