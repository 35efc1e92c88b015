// Package analysistest runs an analyzer over GOPATH-style testdata
// packages and checks its diagnostics against "// want" comment
// expectations, mirroring golang.org/x/tools/go/analysis/analysistest.
//
// An expectation is written on the line it refers to:
//
//	badCall() // want `regexp matching the diagnostic`
//
// Multiple backquoted or double-quoted regexps may follow one want
// marker; each must be matched by a distinct diagnostic on that line.
package analysistest

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strings"
	"testing"

	"fractos/tools/analyzers/analysis"
	"fractos/tools/analyzers/loader"
)

// Run loads each pkgpath from testdata/src, applies the analyzer, and
// reports mismatches between diagnostics and want-comments through t.
// Testdata may also import packages of the enclosing module by their
// full path, which pins a rule to the real declaration rather than to
// a stub of it.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	modPath, modDir, err := loader.FindModule(testdata)
	if err != nil {
		t.Fatalf("locating the module: %v", err)
	}
	ld := &loader.Loader{SrcDirs: []string{testdata + "/src"}, ModulePath: modPath, ModuleDir: modDir}
	pkgs, err := ld.Load(pkgpaths...)
	if err != nil {
		t.Fatalf("loading testdata: %v", err)
	}
	// The directive index reads every loaded testdata package (the
	// requested ones plus their in-root dependencies) as the module.
	module := &analysis.Module{}
	for _, pkg := range ld.Loaded() {
		module.Packages = append(module.Packages, &analysis.ModulePackage{
			Files: pkg.Files, TypesInfo: pkg.TypesInfo,
		})
	}
	for _, pkg := range pkgs {
		if len(pkg.Errors) > 0 {
			t.Fatalf("testdata package %s has type errors: %v", pkg.PkgPath, pkg.Errors)
		}
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Module:    module,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if _, err := a.Run(pass); err != nil {
			t.Fatalf("%s: analyzer failed: %v", pkg.PkgPath, err)
		}
		checkExpectations(t, pkg, a, diags)
	}
}

type expectation struct {
	rx      *regexp.Regexp
	matched bool
}

// checkExpectations compares diagnostics with want-comments.
func checkExpectations(t *testing.T, pkg *loader.Package, a *analysis.Analyzer, diags []analysis.Diagnostic) {
	t.Helper()
	wants := make(map[string][]*expectation) // "file:line" -> expectations
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
				idx := strings.Index(text, "want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, pat := range parsePatterns(text[idx+len("want "):]) {
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad want pattern %q: %v", key, pat, err)
						continue
					}
					wants[key] = append(wants[key], &expectation{rx: rx})
				}
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.rx.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%v: unexpected diagnostic from %s: %s", position(pkg.Fset, d.Pos), a.Name, d.Message)
		}
	}
	keys := make([]string, 0, len(wants))
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", k, w.rx)
			}
		}
	}
}

// parsePatterns extracts backquoted or double-quoted regexps.
func parsePatterns(s string) []string {
	var pats []string
	for {
		s = strings.TrimLeft(s, " \t")
		if len(s) == 0 {
			return pats
		}
		quote := s[0]
		if quote != '`' && quote != '"' {
			return pats
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			return pats
		}
		pats = append(pats, s[1:1+end])
		s = s[end+2:]
	}
}

func position(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d:%d", p.Filename, p.Line, p.Column)
}
