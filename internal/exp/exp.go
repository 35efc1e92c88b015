// Package exp is the evaluation harness: one generator per table and
// figure of the paper's §6, plus the ablations called out in
// DESIGN.md. Each generator deploys a fresh simulated cluster, runs
// the workload, and returns a Table whose rows mirror what the paper
// plots; Metrics carries the headline numbers for benchmarks and
// regression tests.
package exp

import (
	"fmt"
	"io"
	"strings"
)

// Table is one regenerated table or figure.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// Metrics exposes key values ("fig12.speedup", ...) for tests and
	// benchmark reporting.
	Metrics map[string]float64
}

// NewTable creates an empty table.
func NewTable(id, title string, cols ...string) *Table {
	return &Table{ID: id, Title: title, Columns: cols, Metrics: map[string]float64{}}
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a footnote.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Metric records a named headline value.
func (t *Table) Metric(name string, v float64) { t.Metrics[t.ID+"."+name] = v }

// Print renders the table as aligned text.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// WriteCSV renders the table as CSV (for plotting).
func (t *Table) WriteCSV(w io.Writer) {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	row := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = esc(c)
		}
		fmt.Fprintln(w, strings.Join(parts, ","))
	}
	row(t.Columns)
	for _, r := range t.Rows {
		row(r)
	}
}

// Spec names a runnable experiment.
type Spec struct {
	ID    string
	Title string
	Run   func() *Table
}

// All lists every experiment in paper order.
func All() []Spec {
	return []Spec{
		{"table3", "Null-operation latency", Table3},
		{"fig2", "Traffic analysis: centralized vs distributed inference pipeline", Figure2},
		{"fig5", "memory_copy throughput vs transfer size", Figure5},
		{"fig6", "Request-invocation (RPC) latency", Figure6},
		{"fig7", "Capability delegation and revocation", Figure7},
		{"fig8", "Service-composition pipeline: star / fast-star / chain", Figure8},
		{"fig9", "GPU service: latency and throughput vs rCUDA", Figure9},
		{"fig10", "Storage latency: FS / DAX / NVMe-oF baseline / local", Figure10},
		{"fig11", "Storage throughput, 1 MiB reads, 4 in flight", Figure11},
		{"fig12", "Face verification end-to-end latency", Figure12},
		{"fig13", "Face verification end-to-end throughput", Figure13},
		{"scaling-fv", "Open-loop face-verification scaling (offered load sweep)", ScalingFaceVerify},
		{"scaling-route", "Replicated-service routing under open-loop overload", ScalingRoute},
		{"chaos-fv", "Availability under injected faults (loss / partition / crash)", ChaosFaceVerify},
		{"abl-direct", "Ablation: mediated vs composed vs leased storage access", AblationDirectComposition},
		{"abl-msgs", "Ablation: message complexity, centralized vs distributed", AblationMessageComplexity},
		{"abl-dbuf", "Ablation: double buffering in memory_copy", AblationDoubleBuffer},
		{"abl-conc-copy", "Ablation: concurrent small memory_copy saturation", AblationConcurrentCopies},
		{"abl-window", "Ablation: congestion-control window", AblationWindow},
		{"abl-revtree", "Ablation: revocation-tree depth", AblationRevtreeDepth},
		{"abl-placement", "Ablation: controller placement (null op)", AblationPlacement},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Spec, bool) {
	for _, s := range All() {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}
