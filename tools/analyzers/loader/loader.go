// Package loader loads and type-checks Go packages for the
// fractos-vet analyzers without depending on golang.org/x/tools.
//
// Three resolution layers are consulted for an import path, in order:
//
//  1. GOPATH-style source roots (SrcDirs): path p maps to <root>/p.
//     This is how analysistest materializes its testdata packages.
//  2. The enclosing module: paths under the module path declared in
//     go.mod map to directories under the module root and are parsed
//     and type-checked from source.
//  3. The standard library, through go/importer's "source" compiler,
//     which type-checks GOROOT sources directly — no pre-built export
//     data is required.
//
// The loader is deliberately simple: no cgo, no vendor directories —
// neither of which this repository uses — and //go:build lines are
// evaluated for the normal build of this host only, so the race-tagged
// retention-poisoning files (internal/wire, internal/fabric) are left
// to the compiler and `make race`.
package loader

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	Errors    []error
}

// Loader loads packages. Configure the fields, then call Load or
// LoadModule.
type Loader struct {
	// Fset receives all parsed positions. Created on demand.
	Fset *token.FileSet

	// SrcDirs are GOPATH-style roots searched before the module.
	SrcDirs []string

	// ModulePath and ModuleDir describe the enclosing module, e.g.
	// "fractos" rooted at the repository. Optional.
	ModulePath string
	ModuleDir  string

	// IncludeTests also parses _test.go files of loaded packages.
	IncludeTests bool

	fallback types.ImporterFrom
	cache    map[string]*entry
}

type entry struct {
	pkg     *Package
	tpkg    *types.Package
	err     error
	loading bool
}

// FindModule locates the enclosing go.mod starting at dir and returns
// the module path and root directory.
func FindModule(dir string) (modPath, modDir string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if strings.HasPrefix(line, "module ") {
					return strings.TrimSpace(strings.TrimPrefix(line, "module ")), d, nil
				}
			}
			return "", "", fmt.Errorf("loader: no module line in %s/go.mod", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("loader: no go.mod found above %s", abs)
		}
	}
}

func (l *Loader) init() {
	if l.Fset == nil {
		l.Fset = token.NewFileSet()
	}
	if l.cache == nil {
		l.cache = make(map[string]*entry)
	}
	if l.fallback == nil {
		l.fallback = importer.ForCompiler(l.Fset, "source", nil).(types.ImporterFrom)
	}
}

// Load loads the given import paths (resolved through SrcDirs and the
// module) and returns them in the given order.
func (l *Loader) Load(paths ...string) ([]*Package, error) {
	l.init()
	var pkgs []*Package
	for _, p := range paths {
		e := l.load(p)
		if e.err != nil {
			return nil, fmt.Errorf("loader: %s: %w", p, e.err)
		}
		if e.pkg == nil {
			return nil, fmt.Errorf("loader: %s resolved outside source roots", p)
		}
		pkgs = append(pkgs, e.pkg)
	}
	return pkgs, nil
}

// LoadModule loads every package of the configured module, walking
// ModuleDir. Directories named "testdata", hidden directories, and
// directories without non-test Go files are skipped.
func (l *Loader) LoadModule() ([]*Package, error) {
	l.init()
	if l.ModuleDir == "" {
		return nil, fmt.Errorf("loader: LoadModule requires ModuleDir")
	}
	var paths []string
	err := filepath.Walk(l.ModuleDir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			return nil
		}
		name := info.Name()
		if path != l.ModuleDir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if len(goFilesIn(path, false)) == 0 {
			return nil
		}
		rel, rerr := filepath.Rel(l.ModuleDir, path)
		if rerr != nil {
			return rerr
		}
		imp := l.ModulePath
		if rel != "." {
			imp = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		paths = append(paths, imp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return l.Load(paths...)
}

// Loaded returns every source package materialized so far (requested
// packages and their in-module or in-root dependencies), sorted by
// import path. Standard-library fallback imports are not included —
// they carry no syntax.
func (l *Loader) Loaded() []*Package {
	var pkgs []*Package
	for _, e := range l.cache {
		if e.pkg != nil {
			pkgs = append(pkgs, e.pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs
}

// resolveDir maps an import path to a source directory, or "" if the
// path is not under a source root or the module.
func (l *Loader) resolveDir(path string) string {
	for _, root := range l.SrcDirs {
		dir := filepath.Join(root, filepath.FromSlash(path))
		if len(goFilesIn(dir, false)) > 0 {
			return dir
		}
	}
	if l.ModulePath != "" {
		if path == l.ModulePath {
			return l.ModuleDir
		}
		if strings.HasPrefix(path, l.ModulePath+"/") {
			dir := filepath.Join(l.ModuleDir, filepath.FromSlash(strings.TrimPrefix(path, l.ModulePath+"/")))
			if len(goFilesIn(dir, false)) > 0 {
				return dir
			}
		}
	}
	return ""
}

func goFilesIn(dir string, includeTests bool) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var files []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	sort.Strings(files)
	return files
}

// buildable reports whether a file's //go:build line, if it has one,
// holds for a normal build on this host: its OS and architecture, any
// Go release, and no optional tag such as race.
func buildable(af *ast.File) bool {
	for _, cg := range af.Comments {
		if cg.Pos() > af.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			x, err := constraint.Parse(c.Text)
			if err != nil {
				return true // the compiler reports it
			}
			return x.Eval(func(tag string) bool {
				return tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc" || strings.HasPrefix(tag, "go1.")
			})
		}
	}
	return true
}

// Import implements types.Importer for packages under our source
// roots, falling back to the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	e := l.load(path)
	return e.tpkg, e.err
}

func (l *Loader) load(path string) *entry {
	if e, ok := l.cache[path]; ok {
		if e.loading {
			return &entry{err: fmt.Errorf("import cycle through %q", path)}
		}
		return e
	}
	dir := l.resolveDir(path)
	if dir == "" {
		// Standard library (or anything else outside our roots).
		tpkg, err := l.fallback.Import(path)
		e := &entry{tpkg: tpkg, err: err}
		l.cache[path] = e
		return e
	}
	marker := &entry{loading: true}
	l.cache[path] = marker
	pkg, err := l.check(path, dir)
	e := &entry{pkg: pkg, err: err}
	if pkg != nil {
		e.tpkg = pkg.Types
	}
	l.cache[path] = e
	return e
}

// check parses and type-checks the package in dir.
func (l *Loader) check(path, dir string) (*Package, error) {
	files := goFilesIn(dir, l.IncludeTests)
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	pkg := &Package{
		PkgPath: path,
		Dir:     dir,
		Fset:    l.Fset,
		TypesInfo: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		},
	}
	for _, f := range files {
		af, err := parser.ParseFile(l.Fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if buildable(af) {
			pkg.Files = append(pkg.Files, af)
		}
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.Errors = append(pkg.Errors, err) },
	}
	tpkg, err := conf.Check(path, l.Fset, pkg.Files, pkg.TypesInfo)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}
