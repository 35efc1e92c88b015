package main

import "testing"

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
