package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"

	"fractos/internal/fabric"
	"fractos/internal/sim"
)

// smokeDiv shrinks every run 200-fold: a few dozen requests per
// segment, one set-up, a few hundred operations per ladder rung.
const smokeDiv = 200

// latencies runs two segments of a workload and returns every
// request's virtual latency, with or without the fabric traced.
func latencies(t *testing.T, w *workload, seed int64, trace bool) []sim.Time {
	t.Helper()
	n := w.segmentSize(runSeconds, smokeDiv)
	m := deploy(w, seed, n, 2*n, func(tk *sim.Task, m *measured) {
		if trace {
			seen := 0
			m.d.Net().SetTrace(func(fabric.TraceEvent) { seen++ })
		}
		m.segment(tk)
		m.segment(tk)
	})
	if m.failed() > 0 {
		t.Fatalf("%s seed %d: %d requests failed%s", w.name, seed, m.failed(), describe(m.firstError))
	}
	return m.lat
}

// TestVirtualClockRepeats: the same seed gives the same latency for
// every single request, traced or not; another seed gives other inputs
// and is still correct.
func TestVirtualClockRepeats(t *testing.T) {
	for _, w := range workloads {
		a := latencies(t, w, 1, false)
		if b := latencies(t, w, 1, false); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two runs of seed 1 differ", w.name)
		}
		if b := latencies(t, w, 1, true); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: tracing changed virtual latencies", w.name)
		}
		if b := latencies(t, w, 2, false); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 2 gave the same latencies as seed 1", w.name)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkDoc holds a run's metric names against the table it reports.
func checkDoc(t *testing.T, doc *runDoc, defs []metricDef) {
	t.Helper()
	if !doc.Correct {
		t.Errorf("%s traced=%v: not correct: %v", doc.Workload, doc.Traced, doc.Failures)
	}
	if len(doc.Metrics) != len(defs) {
		t.Errorf("%s traced=%v: %d metrics emitted, %d defined", doc.Workload, doc.Traced, len(doc.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := doc.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", doc.Workload, d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s is %v", doc.Workload, d.Name, m.Value)
		}
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside the contract", d.Name)
		}
	}
}

// TestRunsAndNames runs every workload end to end and traced at a
// fraction of its size: correctness gates and layer-separation gates
// pass, the residence ledger adds up (a failure otherwise), CPU shares
// sum to 1, virtual and count metrics repeat exactly, and the emitted
// names are the tables' names.
func TestRunsAndNames(t *testing.T) {
	for _, w := range workloads {
		a := runWorkload(w, 1, runSeconds, false, smokeDiv)
		b := runWorkload(w, 1, runSeconds, false, smokeDiv)
		checkDoc(t, a, endToEnd)
		for _, d := range endToEnd {
			if d.Clock == "host" {
				continue
			}
			if a.Metrics[d.Name].Value != b.Metrics[d.Name].Value {
				t.Errorf("%s: %s differs between two runs of one seed: %v, %v",
					w.name, d.Name, a.Metrics[d.Name].Value, b.Metrics[d.Name].Value)
			}
			if a.Metrics[d.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.name, d.Name)
			}
		}

		// Traced at 1/20 so the profiler gets samples to share out.
		tr := runWorkload(w, 2, runSeconds, true, smokeDiv/10)
		checkDoc(t, tr, perLayer)
		sum := 0.0
		for _, l := range cpuLayers {
			sum += tr.Metrics[l+".cpu_share"].Value
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: cpu shares sum to %v", w.name, sum)
		}
		holds := 0.0
		for _, k := range []string{"proc", "core", "device", "app"} {
			holds += tr.Metrics[k+".virt_hold_us"].Value
		}
		holds += tr.Metrics["fabric.virt_rdma_hold_us"].Value
		if unloaded := tr.Metrics["proc.virt_unloaded_us"].Value; math.Abs(holds-unloaded) > 1e-6 || unloaded == 0 {
			t.Errorf("%s: ledger holds sum to %v us, unloaded latency is %v us", w.name, holds, unloaded)
		}
	}
}

// TestManifest: BENCHMARK.json at the root of the repository is what
// -manifest prints, and stays inside the contract's limits.
func TestManifest(t *testing.T) {
	want, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Errorf("BENCHMARK.json is stale; regenerate with: bash benchmark/run.sh -manifest > BENCHMARK.json")
	}
	m := buildManifest()
	if len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 || len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("manifest outside limits: %d end-to-end, %d per-layer, %d workloads", len(m.EndToEnd), len(m.PerLayer), len(m.Workloads))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
		if len(d.Unit) > 16 || (d.Better != "lower" && d.Better != "higher") || d.Bound > 0.25 {
			t.Errorf("metric %s outside limits", d.Name)
		}
	}
	for _, w := range m.Workloads {
		if len(w.Why) > 200 || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %s outside limits (why is %d characters)", w.Name, len(w.Why))
		}
	}
}

// TestCPUShares: a profile of this process buckets to shares that sum
// to 1, with the spinning test function under "other".
func TestCPUShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	x := 0
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e6; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err, x)
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 || shares["other"] < 0.5 {
		t.Errorf("shares %v sum to %v", shares, sum)
	}
}

// TestCompareVerdicts pins the comparison rule on hand-made series.
func TestCompareVerdicts(t *testing.T) {
	lower := docMetric{Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		old, cur []float64
		want     string
	}{
		{[]float64{100, 101, 99, 100}, []float64{100, 100, 101, 99}, "same"},
		{[]float64{100, 101, 99, 100}, []float64{120, 121, 119, 120}, "worse"},
		{[]float64{100, 101, 99, 100}, []float64{80, 81, 79, 80}, "better"},
		{[]float64{100, 140, 60, 100}, []float64{105, 150, 70, 100}, "unresolved"},
	} {
		got, _ := verdict(&series{def: lower, values: c.old}, &series{def: lower, values: c.cur})
		if got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.old, c.cur, got, c.want)
		}
	}
	// Seeds that differ widely from each other but not between the two
	// sides: unresolved by medians, same once paired by seed.
	wide := []float64{100, 200, 300, 400}
	seeds := []int64{1, 2, 3, 4}
	if got, _ := verdict(&series{def: lower, values: wide}, &series{def: lower, values: wide}); got != "unresolved" {
		t.Errorf("unpaired wide series: %s, want unresolved", got)
	}
	if got, _ := verdict(&series{def: lower, values: wide, seeds: seeds}, &series{def: lower, values: wide, seeds: seeds}); got != "same" {
		t.Errorf("paired wide series: %s, want same", got)
	}
}
