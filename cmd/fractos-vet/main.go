// Command fractos-vet runs the repository's three static analyzers
// over the module: simulator determinism (simdet), results that must
// not be dropped — wire.Status, Net.Send's delivery failure, registry
// membership errors — (mustuse) and the no-panic policy (panicfree).
// Each stays because it catches a change no test fails
// (docs/STATIC_ANALYSIS.md has the probe tables). The capability and
// epoch checks of §3.5 and §3.6 are held by tests, not linted: each
// check has a test that fails without it (docs/FAULTS.md). Pooled
// records and the syscall completion protocol are not linted either:
// every testbed run ends by checking that the kernel-context pools are
// parked and that every syscall completed exactly once
// (sim.Kernel.Unparked). The analyzers know no function by name: each
// reads //fractos: directives off the declarations it is about, and a
// fourth check reports every directive or waiver that no analyzer
// reads.
//
// Usage:
//
//	fractos-vet [package pattern ...]
//
// The patterns go to `go list` as they are; with none, ./... is
// analyzed. One `go list -deps -export` run lists the packages and
// their dependencies, each package's files already filtered by build
// constraints, in dependency order, with export data for the standard
// library. Packages of the module are type-checked from source, so the
// directive index holds one object per declaration; then every
// (package, analyzer) pass runs, serially. Findings are printed as
// file:line:col: [analyzer] message, and the exit status is 1 if there
// were any, 2 on a usage or load error. Wall-clock totals go to stderr.
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// analyzer is one check of the suite.
type analyzer struct {
	name string
	// directives are the //fractos: directives the analyzer reads off
	// declarations, and waiver the fractos:*-ok marker that silences
	// one of its findings, both without the prefix. Any other directive
	// or waiver in the code is a finding of the directives check.
	directives []string
	waiver     string
	run        func(*pass)
}

// all is the suite, in reporting order.
var all = []*analyzer{mustuse, panicfree, simdet}

// pkg is one package of the module, type-checked from source.
type pkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// program is what one load yields: the packages the patterns named and
// the directives of every module package loaded, dependencies included,
// so an analyzer reads the directives of a callee in another package.
type program struct {
	fset    *token.FileSet
	targets []*pkg
	index   index
}

// pass hands one analyzer one package and collects its findings.
type pass struct {
	*analyzer
	*pkg
	prog     *program
	findings *[]finding
}

type finding struct {
	pos      token.Position
	analyzer string
	message  string
}

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: fractos-vet [package pattern ...]  (default ./...)")
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := vet(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fractos-vet:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Printf("%s: [%s] %s\n", f.pos, f.analyzer, f.message)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "fractos-vet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// vet loads the packages the patterns name and runs the suite and the
// directive check over them.
func vet(patterns ...string) ([]finding, error) {
	start := time.Now()
	prog, err := load(patterns...)
	if err != nil {
		return nil, err
	}
	loaded := time.Now()
	findings := prog.run(append(all[:len(all):len(all)], directives))
	fmt.Fprintf(os.Stderr, "fractos-vet: %d packages × %d analyzers: load %s, analyze %s\n",
		len(prog.targets), len(all), loaded.Sub(start).Round(time.Millisecond), time.Since(loaded).Round(time.Millisecond))
	return findings, nil
}

// load runs `go list -deps -export` over the patterns and type-checks
// every listed package outside the standard library from source, in
// the dependency order go list prints; standard-library imports are
// read from the export data it names.
func load(patterns ...string) (*program, error) {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly"}, patterns...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	prog := &program{fset: token.NewFileSet(), index: index{}}
	export := make(map[string]string)
	checked := make(map[string]*types.Package)
	std := importer.ForCompiler(prog.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(export[path])
	})
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp struct {
			ImportPath, Dir, Export string
			GoFiles                 []string
			Standard, DepOnly       bool
		}
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("reading go list's output: %w", err)
		}
		if lp.Standard {
			export[lp.ImportPath] = lp.Export
			continue
		}
		if len(lp.GoFiles) == 0 {
			continue // a directory of tests only, such as the module root
		}
		p := &pkg{path: lp.ImportPath, info: &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
		}}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(prog.fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		if p.types, err = conf.Check(p.path, prog.fset, p.files, p.info); err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", p.path, err)
		}
		checked[p.path] = p.types
		prog.index.add(p)
		if !lp.DepOnly {
			prog.targets = append(prog.targets, p)
		}
	}
	return prog, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// run applies suite to every target package and returns the findings
// in position order.
func (prog *program) run(suite []*analyzer) []finding {
	var findings []finding
	for _, p := range prog.targets {
		for _, a := range suite {
			a.run(&pass{analyzer: a, pkg: p, prog: prog, findings: &findings})
		}
	}
	slices.SortFunc(findings, func(a, b finding) int {
		return cmp.Or(strings.Compare(a.pos.Filename, b.pos.Filename), cmp.Compare(a.pos.Line, b.pos.Line),
			cmp.Compare(a.pos.Column, b.pos.Column), strings.Compare(a.analyzer, b.analyzer))
	})
	return findings
}

// report records a finding at pos unless it is waived.
func (p *pass) report(pos token.Pos, format string, args ...any) {
	if !p.waived(pos) {
		*p.findings = append(*p.findings, finding{p.prog.fset.Position(pos), p.name, fmt.Sprintf(format, args...)})
	}
}

// waived reports whether the line of pos, or the line directly above
// it, carries a comment with the analyzer's waiver, such as
// "fractos:nondet-ok <reason>".
func (p *pass) waived(pos token.Pos) bool {
	if p.waiver == "" {
		return false
	}
	tf := p.prog.fset.File(pos)
	line := tf.Line(pos)
	for _, f := range p.files {
		if p.prog.fset.File(f.Pos()) != tf {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if l := tf.Line(c.Pos()); (l == line || l == line-1) && strings.Contains(c.Text, prefix+p.waiver) {
					return true
				}
			}
		}
	}
	return false
}

// calledFunc resolves a call to the function or method it statically
// invokes, or nil for a call of a function value or a builtin.
func calledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fn].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fn.Sel].(*types.Func)
		return f
	}
	return nil
}
