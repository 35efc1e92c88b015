package main

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"fractos/internal/core"
	"fractos/internal/fabric"
	"fractos/internal/load"
	"fractos/internal/sim"
	"fractos/internal/testbed"
)

const (
	segments      = 7 // timed segments of an end-to-end run
	tracedSegs    = 2 // traced segments of a traced run, after one untraced
	setupRepeats  = 5 // set-ups per end-to-end run; setup_s is their median
	warmShare     = 10
	ledgerSamples = 200
)

// segmentSize is the request count of one segment: fixed by --seconds
// alone, so a run is the same length on every commit. div is 1 except
// in the smoke test, which shrinks everything by it.
func (w *workload) segmentSize(seconds, div int) int {
	n := w.rate * seconds / segments / div
	if q := max(w.clients, 1) * warmShare; n < q {
		return q
	} else {
		return n / q * q // whole requests per client, in the warm-up too
	}
}

// snapshot is every counter read from outside the program around a
// phase: the fabric's, the Controllers' (summed), the Go runtime's and
// the process's.
type snapshot struct {
	wall   time.Time
	virt   sim.Time
	fab    fabric.Stats
	faults fabric.FaultStats
	core   core.Metrics
	mem    runtime.MemStats
	cpu    time.Duration
	own    map[string]float64
}

// addMetrics adds sign × m to every counter of sum.
func addMetrics(sum *core.Metrics, m core.Metrics, sign int64) {
	dst, src := reflect.ValueOf(sum).Elem(), reflect.ValueOf(m)
	for i := 0; i < src.NumField(); i++ {
		dst.Field(i).SetInt(dst.Field(i).Int() + sign*src.Field(i).Int())
	}
}

func takeSnapshot(tk *sim.Task, d *testbed.Deployment, r runner) snapshot {
	s := snapshot{virt: tk.Now(), fab: d.Net().Stats(), faults: d.Net().FaultStats(), own: r.counters()}
	for _, c := range d.Cl.Ctrls {
		addMetrics(&s.core, c.Metrics(), 1)
	}
	runtime.ReadMemStats(&s.mem)
	s.cpu = cpuTime()
	s.wall = time.Now()
	return s
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 } // ru_maxrss is KiB on Linux

// segResult is one load-driver run.
type segResult struct {
	wall   time.Duration
	n      int
	ok     int
	virt   sim.Time
	hwm    int
	lagMax sim.Time
	drain  sim.Time // open loop: from the last arrival to the last completion
}

func (s segResult) reqPerSec() float64 { return float64(s.n) / s.wall.Seconds() }

// measured is one deployment and the samples taken in it.
type measured struct {
	w    *workload
	r    runner
	seed int64
	n    int // requests per segment
	d    *testbed.Deployment

	lat   []sim.Time // latency of request i; -1 if it failed or never ran
	next  int        // first unused request index
	think []sim.Time // pause before request i, see workload.think

	setup      time.Duration
	setupVirt  sim.Time
	timedLo    int // first request of the timed phase
	segs       []segResult
	before     snapshot
	after      snapshot
	errs       int
	wrong      int
	oracleBad  int
	firstError error

	timedEvents uint64 // simulation events of the segments alone
}

// run drives n requests through the workload's loop (or a closed loop
// of the given client count) and records each latency in m.lat.
func (m *measured) run(tk *sim.Task, n, clients int, rate float64) segResult {
	base := m.next
	m.next += n
	var st *load.Stats
	var lag, drain sim.Time
	t0 := time.Now()
	if clients > 0 {
		per := n / clients
		st = load.Closed{Clients: clients, PerClient: per}.Run(tk, func(t *sim.Task, c, seq int) error {
			i := base + c*per + seq
			if m.think != nil {
				t.Sleep(m.think[i%len(m.think)])
			}
			s0 := t.Now()
			err := m.r.request(t, c, i)
			if err != nil {
				m.fail(err)
				return err
			}
			m.lat[i] = t.Now() - s0
			return nil
		})
	} else {
		open := load.Open{Rate: rate, Requests: n, Seed: m.seed<<24 + int64(base)}
		due := open.Arrivals()
		start := tk.Now()
		st = open.Run(tk, func(t *sim.Task, j int) error {
			// Timed from when the request was due, so a late
			// generator or a queue in front of the service counts.
			at := start + due[j]
			lag = max(lag, t.Now()-at)
			err := m.r.request(t, 0, base+j)
			if err != nil {
				m.fail(err)
				return err
			}
			m.lat[base+j] = t.Now() - at
			return nil
		})
		drain = st.Elapsed() - due[n-1]
	}
	return segResult{wall: time.Since(t0), n: n, ok: st.Requests, virt: st.Elapsed(), hwm: st.InflightHWM, lagMax: lag, drain: drain}
}

// fail counts a request that errored or answered wrongly.
func (m *measured) fail(err error) {
	if errors.Is(err, errWrong) {
		m.wrong++
	} else {
		m.errs++
	}
	if m.firstError == nil {
		m.firstError = err
	}
}

// segment runs one segment of the workload's own loop.
func (m *measured) segment(tk *sim.Task) segResult {
	return m.run(tk, m.n, m.w.clients, m.w.openRate)
}

// deploy builds the workload's cluster and runs set-up — services, the
// benchmark's Processes, seeded inputs, the sample array, and a
// warm-up of a tenth of a segment so pools, lazy arenas and the Go
// heap are in steady state — then body, all inside one simulation.
// capacity is the number of requests the deployment will issue after
// the warm-up.
func deploy(w *workload, seed int64, n, capacity int, body func(tk *sim.Task, m *measured)) *measured {
	t0 := time.Now()
	m := &measured{w: w, r: w.new(seed), seed: seed, n: n}
	testbed.Run(m.r.spec(), func(tk *sim.Task, d *testbed.Deployment) {
		m.d = d
		m.r.start(tk, d)
		warm := n / warmShare
		m.lat = make([]sim.Time, warm+capacity)
		for i := range m.lat {
			m.lat[i] = -1
		}
		if w.think > 0 {
			rng := testbed.Rand(seed ^ 0x7468696e6b)
			m.think = make([]sim.Time, inputTable)
			for i := range m.think {
				m.think[i] = 1 + sim.Time(rng.Int63n(int64(w.think)))
			}
		}
		m.run(tk, warm, w.clients, w.openRate)
		m.setup, m.setupVirt = time.Since(t0), tk.Now()
		m.timedLo = m.next
		if body != nil {
			body(tk, m)
		}
		m.oracleBad = m.r.verify(m.lat[:m.next])
	})
	return m
}

// failed is every request that did not produce a correct output.
func (m *measured) failed() int { return m.errs + m.wrong + m.oracleBad }

// okLatencies returns the sorted latencies of the successful requests
// in [lo, hi).
func (m *measured) okLatencies(lo, hi int) []sim.Time {
	out := make([]sim.Time, 0, hi-lo)
	for _, l := range m.lat[lo:hi] {
		if l >= 0 {
			out = append(out, l)
		}
	}
	sortTimes(out)
	return out
}

func sortTimes(s []sim.Time) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// quantile is the exact nearest-rank quantile of a sorted sample.
func quantile(sorted []sim.Time, q float64) sim.Time {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func us(t sim.Time) float64 { return float64(t) / 1e3 }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// endToEndRun is the untraced run: set-up several times, then seven
// timed segments in the last deployment.
func endToEndRun(w *workload, seed int64, n, div int) (*measured, []float64) {
	// The kernel publishes its event count when a simulation ends, so
	// the timed phase's events are the last deployment's minus those of
	// a set-up alone.
	var setups []float64
	var setupEvents uint64
	for i := 1; i < max(2, setupRepeats/div); i++ {
		e0 := sim.TotalEvents()
		setups = append(setups, deploy(w, seed, n, segments*n, nil).setup.Seconds())
		setupEvents = sim.TotalEvents() - e0
	}
	e0 := sim.TotalEvents()
	m := deploy(w, seed, n, segments*n, func(tk *sim.Task, m *measured) {
		m.before = takeSnapshot(tk, m.d, m.r)
		for s := 0; s < segments; s++ {
			m.segs = append(m.segs, m.segment(tk))
		}
		m.after = takeSnapshot(tk, m.d, m.r)
	})
	m.timedEvents = sim.TotalEvents() - e0 - setupEvents
	return m, append(setups, m.setup.Seconds())
}

// endToEndMetrics computes the end-to-end metrics of a timed phase and,
// for host metrics, their per-segment values.
func endToEndMetrics(m *measured, setups []float64) (map[string]float64, map[string][]float64) {
	lat := m.okLatencies(m.timedLo, m.next)
	var virt sim.Time
	var rates []float64
	attempted := 0
	for _, s := range m.segs {
		virt += s.virt
		attempted += s.n
		rates = append(rates, s.reqPerSec())
	}
	ok := float64(len(lat))
	fab := m.after.fab.Sub(m.before.fab)
	out := map[string]float64{
		"virt_p50_us":         us(quantile(lat, 0.50)),
		"virt_p99_us":         us(quantile(lat, 0.99)),
		"virt_goodput_rps":    ok / virt.Seconds(),
		"wire_bytes_per_req":  float64(fab.CrossNodeBytes) / ok,
		"wire_msgs_per_req":   float64(fab.CrossNodeMsgs) / ok,
		"host_req_per_s":      median(rates),
		"host_events_per_req": float64(m.timedEvents) / float64(attempted),
		"host_allocs_per_req": float64(m.after.mem.Mallocs-m.before.mem.Mallocs) / float64(attempted),
		"host_peak_rss_mb":    peakRSSMiB(),
		"setup_s":             median(setups),
	}
	return out, map[string][]float64{"host_req_per_s": rates, "setup_s": setups}
}

// traced is everything a traced run collected besides the counters.
type traced struct {
	main        *measured // segs[0] ran untraced, the rest traced
	setupEvents uint64
	segEvents   uint64 // simulation events of the three segments alone
	digest      digest // of the transfers the traced segments recorded
	profile     []byte
	validateNs  float64
	liveEntries int
	ledger      ledger
	ledgerRun   *measured
}

// tracedRun collects the per-layer numbers: one untraced segment, then
// two with every fabric transfer recorded and the CPU profiler on, in
// the same deployment; then the residence ledger in a second one.
func tracedRun(w *workload, seed int64, n, div int) *traced {
	tr := &traced{}

	// The kernel publishes its event count when a simulation ends, so
	// the segments' share is the main deployment's count minus that of
	// a twin that does everything but the segments.
	e0 := sim.TotalEvents()
	deploy(w, seed, n, 0, func(tk *sim.Task, m *measured) { validateRung(tk, m, div) })
	e1 := sim.TotalEvents()
	tr.setupEvents = e1 - e0

	var prof bytes.Buffer
	tr.main = deploy(w, seed, n, (1+tracedSegs)*n, func(tk *sim.Task, m *measured) {
		m.before = takeSnapshot(tk, m.d, m.r)
		m.segs = append(m.segs, m.segment(tk))

		sent := m.d.Net().Stats().Sub(m.before.fab)
		perSeg := int(sent.TotalMsgs()+sent.RDMAOps) + 1
		events := make([]fabric.TraceEvent, 0, tracedSegs*perSeg*5/4)
		m.d.Net().SetTrace(func(e fabric.TraceEvent) { events = append(events, e) })
		// 500 Hz: at the default 100 Hz two segments give a few hundred
		// samples, too few to split over a dozen layers. pprof then
		// fails to apply its own rate and says so on stderr; the
		// profile records the rate in force.
		runtime.SetCPUProfileRate(500)
		profiling := pprof.StartCPUProfile(&prof) == nil
		for s := 0; s < tracedSegs; s++ {
			m.segs = append(m.segs, m.segment(tk))
		}
		if profiling {
			pprof.StopCPUProfile()
		}
		m.d.Net().SetTrace(nil)
		m.after = takeSnapshot(tk, m.d, m.r)
		tr.digest = digestOf(events)
		tr.validateNs, tr.liveEntries = validateRung(tk, m, div)
	})
	tr.segEvents = sim.TotalEvents() - e1 - tr.setupEvents
	tr.profile = prof.Bytes()

	tr.ledgerRun = deploy(w, seed, n, ledgerSamples, func(tk *sim.Task, m *measured) {
		tr.ledger = residence(tk, m)
	})
	return tr
}

func describe(err error) string {
	if err == nil {
		return ""
	}
	return fmt.Sprintf(" (first: %v)", err)
}
