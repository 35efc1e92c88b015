// Package analysis is a small, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis API surface that the fractos-vet
// analyzers need. The repository is deliberately stdlib-only, so
// rather than vendoring x/tools we mirror the subset we use: an
// Analyzer is a named check with a Run function, a Pass hands it one
// type-checked package, and diagnostics are reported through the Pass.
//
// Analyzers written against this package are source-compatible with
// x/tools' go/analysis for the fields used here, so they could be
// lifted onto the upstream driver unchanged if the dependency policy
// ever relaxes.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the
	// fractos-vet command line. It must be a valid Go identifier.
	Name string

	// Doc is the analyzer's documentation: first line is a summary.
	Doc string

	// Directives are the //fractos: directives the analyzer reads off
	// declarations (Pass.Directive), and Waiver the fractos:*-ok marker
	// that silences one of its findings (Pass.Suppressed); both without
	// the "fractos:" prefix. Any other directive or waiver in the module
	// is a finding of the driver's Directives check.
	Directives []string
	Waiver     string

	// Run applies the analyzer to a package.
	Run func(*Pass) (interface{}, error)
}

// Pass provides one analyzer with the material of one package and
// collects its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report is invoked for each diagnostic. Set by the driver.
	Report func(Diagnostic)

	// Module is every source package loaded alongside this one, so
	// Directive reads the declarations of call targets outside it. Both
	// drivers, fractos-vet and analysistest, set it.
	Module *Module

	// suppress maps file -> set of lines carrying a suppression
	// marker, built lazily per pass.
	suppress map[string]map[int][]string
}

// ModulePackage is one source-loaded package of the module view.
type ModulePackage struct {
	Files     []*ast.File
	TypesInfo *types.Info
}

// Module is the whole-module view shared by all passes of one driver
// run: every source package the loader materialized (module packages
// and, under analysistest, testdata packages), and the directive index
// Directive builds over them on first use. The passes of a run are
// serial, so the index needs no lock.
type Module struct {
	Packages []*ModulePackage

	directives index
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Category string
	Message  string
}

// Suppressed reports whether the line containing pos (or the line
// directly above it) carries a comment containing the analyzer's
// waiver, e.g. "fractos:nondet-ok". Waivers are the escape hatch for
// findings that are understood and intentional; each use should carry
// a reason after the marker.
func (p *Pass) Suppressed(pos token.Pos) bool {
	marker := Prefix + p.Analyzer.Waiver
	if p.suppress == nil {
		p.suppress = make(map[string]map[int][]string)
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					cp := p.Fset.Position(c.Pos())
					m := p.suppress[cp.Filename]
					if m == nil {
						m = make(map[int][]string)
						p.suppress[cp.Filename] = m
					}
					m[cp.Line] = append(m[cp.Line], c.Text)
				}
			}
		}
	}
	at := p.Fset.Position(pos)
	for _, line := range []int{at.Line, at.Line - 1} {
		for _, text := range p.suppress[at.Filename][line] {
			if strings.Contains(text, marker) {
				return true
			}
		}
	}
	return false
}
