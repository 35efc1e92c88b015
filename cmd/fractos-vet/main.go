// Command fractos-vet runs the repository's custom static analyzers
// (tools/analyzers/...) over the module: simulator determinism
// (simdet), results that must not be dropped — wire.Status, Net.Send's
// delivery failure, registry membership errors — (mustuse) and the
// no-panic policy (panicfree). Each stays because it catches a change
// no test fails (docs/STATIC_ANALYSIS.md has the probe tables). The
// capability and epoch checks of §3.5 and §3.6 are held by tests, not
// linted: each check has a test that fails without it
// (docs/FAULTS.md). Pooled records and the syscall completion protocol
// are not linted either: every testbed run ends by checking that the
// kernel-context pools are parked and that every syscall completed
// exactly once (sim.Kernel.Unparked). The analyzers know no function
// by name: each reads //fractos: directives off the declarations it is
// about, and the driver reports every directive or waiver that no
// analyzer reads.
//
// Usage:
//
//	fractos-vet [-list] [-only name[,name...]] [package ...]
//
// With no package arguments the whole module is analyzed, including
// the analyzers themselves. Packages load, then every (package,
// analyzer) pass runs, serially. Findings are printed as
// file:line:col: [analyzer] message, and the exit status is 1 if there
// were any, 2 on usage or load errors. Wall-clock totals go to stderr.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"fractos/tools/analyzers/analysis"
	"fractos/tools/analyzers/loader"
	"fractos/tools/analyzers/mustuse"
	"fractos/tools/analyzers/panicfree"
	"fractos/tools/analyzers/simdet"
)

// all is the fractos-vet suite, in reporting order.
var all = []*analysis.Analyzer{
	mustuse.Analyzer,
	panicfree.Analyzer,
	simdet.Analyzer,
}

type finding struct {
	pos      token.Position
	analyzer string
	message  string
}

func main() {
	only := flag.String("only", "", "comma-separated subset of analyzers to run")
	list := flag.Bool("list", false, "list available analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fractos-vet [-list] [-only name[,name...]] [package ...]\n\nanalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	suite, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fractos-vet:", err)
		os.Exit(2)
	}
	findings, modDir, err := vet(".", flag.Args(), suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fractos-vet:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Printf("%s:%d:%d: [%s] %s\n", relPath(modDir, f.pos.Filename), f.pos.Line, f.pos.Column, f.analyzer, f.message)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "fractos-vet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// vet loads the packages named by args (the whole module enclosing dir
// when there are none), runs suite and the directive check over them,
// and returns the findings in position order with the module's root.
func vet(dir string, args []string, suite []*analysis.Analyzer) ([]finding, string, error) {
	modPath, modDir, err := loader.FindModule(dir)
	if err != nil {
		return nil, "", err
	}
	l := &loader.Loader{ModulePath: modPath, ModuleDir: modDir}

	loadStart := time.Now()
	var pkgs []*loader.Package
	if len(args) > 0 {
		pkgs, err = l.Load(qualify(args, modPath)...)
	} else {
		pkgs, err = l.LoadModule()
	}
	if err != nil {
		return nil, "", err
	}
	loadTime := time.Since(loadStart)

	// The module view spans everything the loader materialized — the
	// requested packages plus their in-module dependencies — so the
	// directive index sees call targets outside the analyzed package
	// set.
	module := &analysis.Module{}
	for _, pkg := range l.Loaded() {
		module.Packages = append(module.Packages, &analysis.ModulePackage{
			Files: pkg.Files, TypesInfo: pkg.TypesInfo,
		})
	}

	analyzeStart := time.Now()
	passes := append(suite[:len(suite):len(suite)], analysis.Directives(all))
	var findings []finding
	for _, pkg := range pkgs {
		for _, a := range passes {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Module:    module,
			}
			pass.Report = func(d analysis.Diagnostic) {
				findings = append(findings, finding{pos: pkg.Fset.Position(d.Pos), analyzer: a.Name, message: d.Message})
			}
			if _, err := a.Run(pass); err != nil {
				return nil, "", fmt.Errorf("%s: %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "fractos-vet: %d packages × %d analyzers: load %s, analyze %s\n",
		len(pkgs), len(suite), loadTime.Round(time.Millisecond), time.Since(analyzeStart).Round(time.Millisecond))

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		if a.pos.Column != b.pos.Column {
			return a.pos.Column < b.pos.Column
		}
		return a.analyzer < b.analyzer
	})
	return findings, modDir, nil
}

func relPath(modDir, file string) string {
	if rel, err := filepath.Rel(modDir, file); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return file
}

// selectAnalyzers filters the suite by the -only flag.
func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var suite []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		suite = append(suite, a)
	}
	return suite, nil
}

// qualify turns bare package arguments into module-qualified import
// paths: "internal/core" and "./internal/core" both mean
// "<module>/internal/core"; fully qualified paths pass through.
func qualify(args []string, modPath string) []string {
	out := make([]string, 0, len(args))
	for _, a := range args {
		a = strings.TrimPrefix(a, "./")
		if a == "" || a == "." {
			out = append(out, modPath)
			continue
		}
		if a == modPath || strings.HasPrefix(a, modPath+"/") {
			out = append(out, a)
			continue
		}
		out = append(out, modPath+"/"+a)
	}
	return out
}
