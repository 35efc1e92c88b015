package main

import (
	"slices"
	"strings"
	"testing"
)

// TestModuleLintsClean runs the whole suite, and the directive check,
// over the module and expects no finding, so a broken rule or a
// misspelt directive fails `go test ./...`, not only `make lint`.
func TestModuleLintsClean(t *testing.T) {
	findings, modDir, err := vet(".", nil, all)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s:%d:%d: [%s] %s", relPath(modDir, f.pos.Filename), f.pos.Line, f.pos.Column, f.analyzer, f.message)
	}
}

// TestQualify: bare, "./"-prefixed and "." arguments name packages of
// the module; fully qualified ones pass through.
func TestQualify(t *testing.T) {
	const mod = "fractos"
	got := qualify([]string{"internal/core", "./internal/sim", ".", "./", "fractos", "fractos/internal/wire"}, mod)
	want := []string{"fractos/internal/core", "fractos/internal/sim", "fractos", "fractos", "fractos", "fractos/internal/wire"}
	if !slices.Equal(got, want) {
		t.Errorf("qualify = %q, want %q", got, want)
	}
}

// TestSelectAnalyzers: -only keeps the named analyzers in the order
// given, and an unknown name is an error that names it.
func TestSelectAnalyzers(t *testing.T) {
	suite, err := selectAnalyzers("simdet, mustuse")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, a := range suite {
		names = append(names, a.Name)
	}
	if want := []string{"simdet", "mustuse"}; !slices.Equal(names, want) {
		t.Errorf("-only simdet,mustuse selects %q, want %q", names, want)
	}
	if suite, _ := selectAnalyzers(""); len(suite) != len(all) {
		t.Errorf("no -only selects %d analyzers, want all %d", len(suite), len(all))
	}
	if _, err := selectAnalyzers("simdet,nosuch"); err == nil || !strings.Contains(err.Error(), `"nosuch"`) {
		t.Errorf("-only with an unknown name: %v, want an error naming it", err)
	}
}

// TestVetOnePackage runs the documented `-only simdet internal/sim`:
// one analyzer over one package argument, with no finding.
func TestVetOnePackage(t *testing.T) {
	suite, err := selectAnalyzers("simdet")
	if err != nil {
		t.Fatal(err)
	}
	findings, _, err := vet(".", []string{"internal/sim"}, suite)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s:%d: [%s] %s", f.pos.Filename, f.pos.Line, f.analyzer, f.message)
	}
}
