// Command bench is the FractOS-Go benchmark: five workloads run against
// the unmodified program, measured on two clocks — the virtual clock of
// the modelled data centre, which repeats exactly for a seed, and the
// host clock of the simulator, which is noisy — with every per-layer
// number taken from outside the program. See ../../README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", runSeconds, "run length; fixes the request count")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	out := fs.String("out", "", "append the full result document (fingerprint, segments, quartiles) to this file as one JSON line")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare old.jsonl new.jsonl")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json")
	list := fs.Bool("list", false, "list every metric with unit, clock, bound and what it should move")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *printManifest:
		b, err := json.MarshalIndent(buildManifest(), "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintln(stdout, string(b))
		return 0
	case *list:
		listMetrics(stdout)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare old.jsonl new.jsonl")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "usage: bench -workload <%s> [-seed n] [-seconds s] [-trace 0|1] [-out file]\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}

	doc := runWorkload(w, *seed, *seconds, *trace == 1, 1)
	printDoc(stdout, doc)
	for _, f := range doc.Failures {
		fmt.Fprintln(stderr, "FAIL:", f)
	}
	if *out != "" {
		if err := appendDoc(*out, doc); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	// The driver reads the last line of standard output.
	line := resultLine{Correct: doc.Correct, Attempted: doc.Attempted, Failed: doc.Failed, Metrics: map[string]metricValue{}}
	for name, m := range doc.Metrics {
		if !m.Local {
			line.Metrics[name] = metricValue{Value: m.Value, Unit: m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintln(stdout, string(b))
	if !doc.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract with the driver.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// docMetric is one metric of a result document. Host metrics measured
// per segment carry every segment's value and the quartiles.
type docMetric struct {
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	Clock    string    `json:"clock"`
	Bound    float64   `json:"bound,omitempty"`
	Local    bool      `json:"local,omitempty"` // not reported to the driver
	Segments []float64 `json:"segments,omitempty"`
	Q1       float64   `json:"q1,omitempty"`
	Q3       float64   `json:"q3,omitempty"`
}

// fingerprint says where and on what a result was measured.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// runDoc is the full result of one run.
type runDoc struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Seconds    int                  `json:"seconds"`
	Traced     bool                 `json:"traced"`
	SegmentLen int                  `json:"segment_requests"`
	Segments   int                  `json:"segments"`
	Samples    int                  `json:"latency_samples"`
	Host       fingerprint          `json:"host"`
	Correct    bool                 `json:"correct"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Failures   []string             `json:"failures,omitempty"`
	Metrics    map[string]docMetric `json:"metrics"`
	WireTypes  map[string][2]int    `json:"wire_types,omitempty"` // traced: count, bytes per control wire type
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Kernel:     "unknown",
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	return fp
}

// runWorkload runs one workload once, traced or not, and checks it.
// div is 1; the smoke test passes more to shrink segments, set-up
// repeats and ladder rungs alike.
func runWorkload(w *workload, seed int64, seconds int, trace bool, div int) *runDoc {
	n := w.segmentSize(seconds, div)
	doc := &runDoc{
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: trace,
		SegmentLen: n, Host: hostFingerprint(),
		Metrics: map[string]docMetric{},
	}
	var m *measured
	var values map[string]float64
	var perSeg map[string][]float64
	defs := endToEnd
	if trace {
		defs = perLayer
		tr := tracedRun(w, seed, n, div)
		m = tr.main
		values, doc.Failures = perLayerMetrics(tr, div)
		doc.WireTypes = map[string][2]int{}
		for t, v := range tr.digest.byType {
			doc.WireTypes[fmt.Sprint(t)] = v
		}
	} else {
		var setups []float64
		m, setups = endToEndRun(w, seed, n, div)
		values, perSeg = endToEndMetrics(m, setups)
	}
	doc.Segments = len(m.segs)
	for _, s := range m.segs {
		doc.Attempted += s.n
	}
	doc.Samples = doc.Attempted - m.errs - m.wrong
	doc.Failed = m.failed()
	if doc.Failed > 0 {
		doc.Failures = append(doc.Failures, fmt.Sprintf("%d of %d requests failed: %d errors, %d wrong outputs, %d oracle violations%s",
			doc.Failed, doc.Attempted, m.errs, m.wrong, m.oracleBad, describe(m.firstError)))
	}
	doc.Correct = len(doc.Failures) == 0
	for _, d := range defs {
		dm := docMetric{Value: values[d.Name], Unit: d.Unit, Better: d.Better, Clock: d.Clock, Bound: d.Bound, Local: d.Local}
		if seg := perSeg[d.Name]; len(seg) > 0 {
			dm.Segments = seg
			dm.Q1, dm.Q3 = quartiles(seg)
		}
		doc.Metrics[d.Name] = dm
	}
	return doc
}

// quartiles are the first and third quartile by linear interpolation
// between order statistics.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.75)
}

func printDoc(w io.Writer, doc *runDoc) {
	kind := "end-to-end, untraced"
	defs := endToEnd
	if doc.Traced {
		kind, defs = "per-layer, traced", perLayer
	}
	fmt.Fprintf(w, "%s seed %d: %d segments x %d requests (%s); %d latency samples; correct=%v\n",
		doc.Workload, doc.Seed, doc.Segments, doc.SegmentLen, kind, doc.Samples, doc.Correct)
	fmt.Fprintf(w, "host: %d cpu, GOMAXPROCS %d, %s, linux %s, %s, commit %s\n",
		doc.Host.NumCPU, doc.Host.GOMAXPROCS, doc.Host.CPUModel, doc.Host.Kernel, doc.Host.GoVersion, doc.Host.Commit)
	for _, d := range defs {
		m := doc.Metrics[d.Name]
		fmt.Fprintf(w, "  %-34s %16.4f %-6s %-7s", d.Name, m.Value, m.Unit, d.Clock)
		if len(m.Segments) > 0 {
			fmt.Fprintf(w, "  q1 %.4f q3 %.4f over %d", m.Q1, m.Q3, len(m.Segments))
		}
		fmt.Fprintln(w)
	}
}

func listMetrics(w io.Writer) {
	fmt.Fprintln(w, "end-to-end (every workload, --trace 0):")
	for _, d := range endToEnd {
		note := ""
		if d.Local {
			note = "  (result documents and -compare only)"
		}
		fmt.Fprintf(w, "  %-34s %-6s %-7s %-6s bound %.0f %%%s\n", d.Name, d.Unit, d.Clock, d.Better, 100*d.Bound, note)
	}
	fmt.Fprintln(w, "per-layer (every workload, --trace 1):")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-34s %-6s %-7s %-6s -> %s\n", d.Name, d.Unit, d.Clock, d.Better, d.Moves)
	}
}

func appendDoc(path string, doc *runDoc) error {
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
