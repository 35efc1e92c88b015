package exp

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("t1", "demo", "a", "long-column")
	tb.AddRow("1", "2")
	tb.AddRow("wide-value", "3")
	tb.Note("a note with %d", 42)
	tb.Metric("m", 1.5)

	var b strings.Builder
	tb.Print(&b)
	out := b.String()
	for _, want := range []string{"t1", "demo", "long-column", "wide-value", "note: a note with 42"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	if tb.Metrics["t1.m"] != 1.5 {
		t.Errorf("metric namespacing broken: %v", tb.Metrics)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t2", "csv demo", "x", "y")
	tb.AddRow("plain", `has,comma`)
	tb.AddRow(`has"quote`, "b")
	var b strings.Builder
	tb.WriteCSV(&b)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if lines[0] != "x,y" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != `plain,"has,comma"` {
		t.Errorf("comma escaping: %q", lines[1])
	}
	if lines[2] != `"has""quote",b` {
		t.Errorf("quote escaping: %q", lines[2])
	}
}

func TestFindExperiments(t *testing.T) {
	if _, ok := Find("fig5"); !ok {
		t.Error("fig5 not found")
	}
	if _, ok := Find("nonexistent"); ok {
		t.Error("nonexistent experiment found")
	}
	// Every listed experiment has a distinct id and a runner.
	seen := map[string]bool{}
	for _, s := range All() {
		if seen[s.ID] {
			t.Errorf("duplicate experiment id %q", s.ID)
		}
		seen[s.ID] = true
		if s.Run == nil || s.Title == "" {
			t.Errorf("experiment %q incomplete", s.ID)
		}
	}
}
