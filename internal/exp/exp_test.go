package exp

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// tables holds one run of each experiment for the whole test binary.
// Generators are deterministic (determinism_test.go holds them to it),
// so the shape tests and TestAllExperimentsRun read the same table
// instead of regenerating it.
var tables = map[string]*Table{}

func table(t *testing.T, id string) *Table {
	t.Helper()
	if tb, ok := tables[id]; ok {
		return tb
	}
	s, ok := Find(id)
	if !ok {
		t.Fatalf("no experiment %q", id)
	}
	tables[id] = s.Run()
	return tables[id]
}

// headline lists, per experiment, the Table.Metrics keys (less the
// "<id>." prefix) that tests, EXPERIMENTS.md and the ROADMAP's scorecard
// read. TestAllExperimentsRun fails when an experiment stops publishing
// one, or when a new experiment lists none.
var headline = map[string][]string{
	"table3":        {"null-cpu-us", "null-snic-us"},
	"fig2":          {"bytes-reduction", "datamsg-reduction"},
	"fig5":          {"copy1b-cpu-us", "copy1b-snic-us", "copy1b-rdma-us", "copy256k-cpu-mbps", "copy256k-rdma-mbps"},
	"fig6":          {"rpc8-cpu1x-us", "rpc8-cpu2x-us"},
	"fig7":          {"deleg1-cpu-us", "revoke8-shared-us", "revoke8-individual-us"},
	"fig8":          {"star-over-fast-64k", "fast-over-chain-4k"},
	"fig9":          {"lat64-rcuda-over-fractos", "tput4-fractos"},
	"fig10":         {"read4k-dax-us", "read256K-dax-speedup"},
	"fig11":         {"rand-dax-mbps", "rand-fs-mbps"},
	"fig12":         {"speedup32", "lat32-fractos-ms"},
	"fig13":         {"tput4-fractos", "tput4-baseline"},
	"scaling-fv":    {"p99-light-ms", "p99-heavy-ms", "knee-offered", "sat-goodput"},
	"scaling-route": {"p99-least-10x-ms", "p99-rr-10x-ms", "p99-least-100x-ms", "shed-least-100x", "mttr-ms"},
	"chaos-fv": {"goodput-nofault", "err-nofault", "goodput-drop5", "err-drop5", "dropped-drop5", "retx-drop5",
		"err-partition", "mttr-partition-ms", "err-crash", "mttr-crash-ms"},
	"abl-direct":    {"fs-us", "direct-us", "dax-us"},
	"abl-msgs":      {"ratio8"},
	"abl-dbuf":      {"gain-1m", "pull-gain-1m"},
	"abl-conc-copy": {"cpu4k-1", "cpu4k-16"},
	"abl-window":    {"w1", "w32"},
	"abl-revtree":   {"d256-us"},
	"abl-placement": {"shared-null-us"},
}

// TestTable3Calibration checks the null-op latencies against the
// paper's Table 3 within 10%.
func TestTable3Calibration(t *testing.T) {
	tb := table(t, "table3")
	if got := tb.Metrics["table3.null-cpu-us"]; got < 2.7 || got > 3.3 {
		t.Errorf("null @CPU = %.2fµs, paper 3.00µs", got)
	}
	if got := tb.Metrics["table3.null-snic-us"]; got < 4.0 || got > 5.0 {
		t.Errorf("null @sNIC = %.2fµs, paper 4.50µs", got)
	}
}

// TestFigure5Shape checks the memory-copy results: small copies are
// far slower than raw RDMA; sNIC slower than CPU; large copies reach
// most of line rate.
func TestFigure5Shape(t *testing.T) {
	tb := table(t, "fig5")
	cpu := tb.Metrics["fig5.copy1b-cpu-us"]
	snic := tb.Metrics["fig5.copy1b-snic-us"]
	rdma := tb.Metrics["fig5.copy1b-rdma-us"]
	if !(rdma < cpu && cpu < snic) {
		t.Errorf("1B latency order wrong: rdma=%.1f cpu=%.1f snic=%.1f", rdma, cpu, snic)
	}
	if cpu < 9 || cpu > 17 {
		t.Errorf("1B copy @CPU = %.1fµs, paper 12.7µs", cpu)
	}
	if snic < 18 || snic > 31 {
		t.Errorf("1B copy @sNIC = %.1fµs, paper 24.5µs", snic)
	}
	// §6.1: full throughput at 256 KiB (double buffering).
	if mb := tb.Metrics["fig5.copy256k-cpu-mbps"]; mb < 0.7*tb.Metrics["fig5.copy256k-rdma-mbps"] {
		t.Errorf("256K copy = %.0f MB/s, want near raw RDMA %.0f", mb, tb.Metrics["fig5.copy256k-rdma-mbps"])
	}
}

// TestFigure7Shape: individual revocation is linear, shared-tree
// revocation is flat.
func TestFigure7Shape(t *testing.T) {
	tb := table(t, "fig7")
	ind := tb.Metrics["fig7.revoke8-individual-us"]
	shared := tb.Metrics["fig7.revoke8-shared-us"]
	if ind < 4*shared {
		t.Errorf("revoking 8 individual leases (%.1fµs) should be ≫ shared tree (%.1fµs)", ind, shared)
	}
}

// TestFigure8Shape: fast-star beats star on large transfers; chain
// beats fast-star on small ones.
func TestFigure8Shape(t *testing.T) {
	tb := table(t, "fig8")
	if r := tb.Metrics["fig8.star-over-fast-64k"]; r < 1.3 {
		t.Errorf("star/fast-star at 64K = %.2fx, paper ~1.6x", r)
	}
	if r := tb.Metrics["fig8.fast-over-chain-4k"]; r < 1.2 {
		t.Errorf("fast-star/chain at 4K = %.2fx, paper ~1.45x", r)
	}
}

// TestFigure2Shape: the headline traffic reduction.
func TestFigure2Shape(t *testing.T) {
	tb := table(t, "fig2")
	if r := tb.Metrics["fig2.bytes-reduction"]; r < 2.0 {
		t.Errorf("byte reduction = %.2fx, paper ~3x", r)
	}
	if r := tb.Metrics["fig2.datamsg-reduction"]; r < 1.5 {
		t.Errorf("data-transfer reduction = %.2fx, paper ~2.5x", r)
	}
	// Each system's cross-node messages by purpose sum to its total.
	for _, row := range tb.Rows[:3] {
		sum := 0
		for _, cell := range row[5:] {
			var local, cross int
			if _, err := fmt.Sscanf(cell, "%d/%d", &local, &cross); err != nil {
				t.Fatalf("%s: class cell %q: %v", row[0], cell, err)
			}
			sum += cross
		}
		if fmt.Sprint(sum) != row[3] {
			t.Errorf("%s: cross-node messages by purpose sum to %d, total %s", row[0], sum, row[3])
		}
	}
	tb.Print(os.Stderr)
}

// TestFigure12Shape: end-to-end speedup.
func TestFigure12Shape(t *testing.T) {
	tb := table(t, "fig12")
	if s := tb.Metrics["fig12.speedup32"]; s < 1.3 {
		t.Errorf("end-to-end speedup = %.2fx, paper ~1.47x", s)
	}
	tb.Print(os.Stderr)
}

// benchOutput is the checked-in output of cmd/fractos-bench, one
// rendered table per experiment id, its "[… regenerated in … wall
// time]" lines dropped.
func benchOutput(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile("../../cmd/fractos-bench/output.txt")
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, l := range strings.SplitAfter(string(b), "\n") {
		if !strings.Contains(l, " regenerated in ") || !strings.HasSuffix(l, " wall time]\n") {
			kept = append(kept, l)
		}
	}
	out := map[string]string{}
	for _, sec := range strings.Split(strings.Join(kept, ""), "\n== ")[1:] {
		id, _, _ := strings.Cut(sec, ":")
		out[id] = "\n== " + sec
	}
	return out
}

// TestAllExperimentsRun executes every registered experiment once and
// checks that the tables render, publish their headline metrics, and
// match cmd/fractos-bench/output.txt cell for cell.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	want := benchOutput(t)
	for _, s := range All() {
		s := s
		t.Run(s.ID, func(t *testing.T) {
			tb := table(t, s.ID)
			if len(tb.Rows) == 0 {
				t.Fatalf("%s produced no rows", s.ID)
			}
			var b strings.Builder
			tb.Print(&b)
			if b.String() != want[s.ID] {
				t.Errorf("%s table differs from cmd/fractos-bench/output.txt:\n%s\nwant:\n%s", s.ID, b.String(), want[s.ID])
			}
			keys, ok := headline[s.ID]
			if !ok {
				t.Errorf("%s lists no headline metrics", s.ID)
			}
			for _, k := range keys {
				if _, ok := tb.Metrics[s.ID+"."+k]; !ok {
					t.Errorf("metric %q missing (have %v)", s.ID+"."+k, tb.Metrics)
				}
			}
		})
	}
}

// TestMessageComplexityMatchesAnalysis: the measured star/chain
// service-message ratio tracks §2.1's analytic 2N/(N+1).
func TestMessageComplexityMatchesAnalysis(t *testing.T) {
	tb := table(t, "abl-msgs")
	ratio := tb.Metrics["abl-msgs.ratio8"]
	analytic := 16.0 / 9.0
	if ratio < analytic*0.9 || ratio > analytic*1.1 {
		t.Errorf("star/chain message ratio = %.2f, analytic %.2f", ratio, analytic)
	}
}

// TestScalingRouteShape pins the replicated-service routing gates:
// feedback routing beats blind round-robin on the p99 tail at 10x the
// single-replica knee, admission control keeps the accepted-request
// tail bounded at 100x overload, and the autoscaler repairs a node
// flap with a measurable virtual-time MTTR.
func TestScalingRouteShape(t *testing.T) {
	tb := table(t, "scaling-route")
	least10, rr10 := tb.Metrics["scaling-route.p99-least-10x-ms"], tb.Metrics["scaling-route.p99-rr-10x-ms"]
	if least10 <= 0 || rr10 <= 0 || least10 >= rr10 {
		t.Errorf("p99 at 10x knee: least=%.3fms, rr=%.3fms — least-loaded must beat round-robin", least10, rr10)
	}
	// At 100x overload the offered load is far past capacity; the
	// admission bound (MaxQueue=16 per replica) must keep the accepted
	// requests' p99 within a small multiple of the full-queue service
	// time instead of growing with the run length.
	if p99 := tb.Metrics["scaling-route.p99-least-100x-ms"]; p99 <= 0 || p99 > 40 {
		t.Errorf("p99 at 100x overload = %.3fms, want bounded (<= 40ms)", p99)
	}
	if shed := tb.Metrics["scaling-route.shed-least-100x"]; shed < 0.5 {
		t.Errorf("shed fraction at 100x = %.2f, want most of the overload refused", shed)
	}
	if mttr := tb.Metrics["scaling-route.mttr-ms"]; mttr <= 0 {
		t.Errorf("mttr-ms = %.3f, want > 0 (node flap repaired)", mttr)
	}
}

// TestChaosFaceVerifyShape pins what the availability table claims
// (docs/FAULTS.md): frame loss and a 20 ms partition cost no request —
// retransmission and client retries absorb them, with no resend the
// fabric did not cause — the partition shows up as a service gap of its
// own length, and a Controller crash loses only the requests in its
// window and is repaired within the detect + reboot + redeploy budget.
func TestChaosFaceVerifyShape(t *testing.T) {
	m := table(t, "chaos-fv").Metrics
	for _, k := range []string{"err-nofault", "err-drop5", "err-partition"} {
		if n := m["chaos-fv."+k]; n != 0 {
			t.Errorf("%s = %.0f, want 0", k, n)
		}
	}
	if clean, lossy := m["chaos-fv.goodput-nofault"], m["chaos-fv.goodput-drop5"]; clean <= 0 || lossy < 0.95*clean {
		t.Errorf("goodput at 5 %% loss = %.0f req/s, want >= 95 %% of the fault-free %.0f", lossy, clean)
	}
	if dropped, retx := m["chaos-fv.dropped-drop5"], m["chaos-fv.retx-drop5"]; dropped == 0 || math.Abs(retx-dropped) > 0.05*dropped {
		t.Errorf("%.0f retransmits for %.0f dropped frames at 5 %% loss, want within 5 %% (and > 0 drops)", retx, dropped)
	}
	if mttr := m["chaos-fv.mttr-partition-ms"]; mttr < 20 || mttr > 30 {
		t.Errorf("longest gap across the 20 ms partition = %.1f ms, want 20..30", mttr)
	}
	if n := m["chaos-fv.err-crash"]; n <= 0 || n > 30 {
		t.Errorf("Controller crash failed %.0f of %d requests, want 1..30 (the crash window only)", n, chaosRequests)
	}
	if mttr := m["chaos-fv.mttr-crash-ms"]; mttr <= 0 || mttr > 40 {
		t.Errorf("longest gap across the Controller crash = %.1f ms, want <= 40", mttr)
	}
}

// TestScalingFaceVerifyShape pins the open-loop saturation curve:
// goodput plateaus at the batch-64 stack's capacity (~3.6k req/s), the
// knee falls inside the swept rates, and past it the p99 is several
// times the light-load tail.
func TestScalingFaceVerifyShape(t *testing.T) {
	m := table(t, "scaling-fv").Metrics
	if sat := m["scaling-fv.sat-goodput"]; math.Abs(sat-3600) > 360 {
		t.Errorf("saturated goodput = %.0f req/s, want within 10 %% of 3600", sat)
	}
	if knee := m["scaling-fv.knee-offered"]; knee <= scalingRates[0] || knee >= scalingRates[len(scalingRates)-1] {
		t.Errorf("knee at %.0f req/s offered, want inside the sweep %v", knee, scalingRates)
	}
	if light, heavy := m["scaling-fv.p99-light-ms"], m["scaling-fv.p99-heavy-ms"]; light <= 0 || heavy < 4*light {
		t.Errorf("p99 = %.3f ms past saturation, %.3f ms at light load, want >= 4x", heavy, light)
	}
}
