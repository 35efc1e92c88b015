package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// readDocs reads a file of result documents, one JSON object per line.
func readDocs(path string) ([]*runDoc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var docs []*runDoc
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		doc := &runDoc{}
		if err := json.Unmarshal(sc.Bytes(), doc); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		docs = append(docs, doc)
	}
	return docs, sc.Err()
}

// series is every value of one metric of one workload in one file, in
// file order: one per run, or, from a single run of a host metric, one
// per segment. seeds is the seed of each run.
type series struct {
	def    docMetric
	values []float64
	seeds  []int64
}

func collect(docs []*runDoc) map[string]map[string]*series {
	out := map[string]map[string]*series{}
	for _, d := range docs {
		if out[d.Workload] == nil {
			out[d.Workload] = map[string]*series{}
		}
		for name, m := range d.Metrics {
			s := out[d.Workload][name]
			if s == nil {
				s = &series{def: m}
				out[d.Workload][name] = s
			}
			s.values = append(s.values, m.Value)
			s.seeds = append(s.seeds, d.Seed)
		}
	}
	for _, metrics := range out {
		for _, s := range metrics {
			if len(s.values) == 1 && len(s.def.Segments) > 0 {
				s.values, s.seeds = s.def.Segments, nil
			}
		}
	}
	return out
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 4 {
		return 0
	}
	q1, q3 := quartiles(v)
	return ratio(q3-q1, median(v))
}

// paired reports whether the two series ran the same seeds in the same
// order, so that run i of one faced the same inputs as run i of the
// other.
func paired(old, cur *series) bool {
	if len(old.seeds) == 0 || len(old.seeds) != len(cur.seeds) {
		return false
	}
	for i := range old.seeds {
		if old.seeds[i] != cur.seeds[i] {
			return false
		}
	}
	return true
}

// verdict compares two series of one metric. With the same seeds on
// both sides it judges the median of the per-seed changes, whose spread
// is zero for an unchanged virtual metric however much seeds differ
// from each other; otherwise the change of the medians, against the
// spread of each side's runs. It says worse or better when the change
// exceeds the bound in that direction, unresolved when the spread is
// wider than the bound (unless every new run beats every old one, or
// the reverse), same otherwise. The change returned is positive when
// the new side is worse.
func verdict(old, cur *series) (string, float64) {
	sign := 1.0
	if old.def.Better == "higher" {
		sign = -1
	}
	var worse, noise float64
	if paired(old, cur) {
		changes := make([]float64, len(old.values))
		for i := range changes {
			changes[i] = sign * ratio(cur.values[i]-old.values[i], old.values[i])
		}
		worse = median(changes)
		if len(changes) >= 4 {
			q1, q3 := quartiles(changes)
			noise = q3 - q1
		}
	} else {
		mo := median(old.values)
		worse = sign * ratio(median(cur.values)-mo, mo)
		noise = max(spread(old.values), spread(cur.values))
	}
	bound := old.def.Bound
	switch {
	case bound == 0:
		return "-", worse
	case noise > bound && !separated(old, cur):
		return "unresolved", worse
	case worse > bound:
		return "worse", worse
	case worse < -bound:
		return "better", worse
	}
	return "same", worse
}

// separated reports whether every run of one side reads better than
// every run of the other.
func separated(old, cur *series) bool {
	return slices.Max(old.values) < slices.Min(cur.values) || slices.Max(cur.values) < slices.Min(old.values)
}

// compareFiles prints, per workload and metric, both medians, the
// change, the bound and a verdict. It returns 1 if anything got worse.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	oldDocs, err := readDocs(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	newDocs, err := readDocs(newPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	old, cur := collect(oldDocs), collect(newDocs)
	exit := 0
	fmt.Fprintf(stdout, "%-13s %-34s %16s %16s %9s %6s  %s\n", "workload", "metric", "old median", "new median", "worse by", "bound", "verdict")
	for _, w := range workloads {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				o, c := old[w.name][d.Name], cur[w.name][d.Name]
				if o == nil || c == nil {
					continue
				}
				v, worse := verdict(o, c)
				how := "medians"
				if paired(o, c) {
					how = "paired by seed"
				}
				fmt.Fprintf(stdout, "%-13s %-34s %16.4f %16.4f %+8.2f%% %5.0f%%  %s (%d/%d runs, %s)\n",
					w.name, d.Name, median(o.values), median(c.values), 100*worse, 100*o.def.Bound, v, len(o.values), len(c.values), how)
				if v == "worse" {
					exit = 1
				}
			}
		}
	}
	return exit
}
