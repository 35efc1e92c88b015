// Package allocfree makes "zero allocations on the hot path" a linted
// property instead of prose. A function annotated //fractos:hotpath
// must not contain an allocation source, nor call — through any chain
// of statically resolved same-module calls — a function that does.
// Allocation sources are those summarized by the callgraph layer:
// heap composite literals, slice/map literals, make, new, append
// growth, string concatenation and conversion, closures, fmt calls,
// and interface boxing at variadic ...interface{} call sites.
//
// Deliberate cold-branch allocations (pool refills, error paths,
// amortized growth) are waived with a `fractos:alloc-ok <reason>`
// comment on the allocating line; putting the waiver on a call line
// instead prunes traversal through that call.
//
// The check is may-miss across dynamic dispatch: interface-method and
// function-value calls are not resolved, so allocations behind them
// are not attributed. The AllocsPerRun gates in bench_test.go are the
// runtime backstop for what the static view cannot see.
//
// The device paths register arenas far larger than they touch, so they
// call no function annotated //fractos:whole-arena, which materializes
// a whole arena, and take ranged views instead. No waiver.
package allocfree

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"

	"fractos/tools/analyzers/analysis"
	"fractos/tools/analyzers/astq"
	"fractos/tools/analyzers/callgraph"
)

// Analyzer is the allocfree analysis.
var Analyzer = &analysis.Analyzer{
	Name:       "allocfree",
	Doc:        "functions annotated fractos:hotpath must be allocation-free across same-module calls; device paths call no fractos:whole-arena function",
	Directives: []string{"hotpath", wholeArena},
	Waiver:     "alloc-ok", // read by the call graph
	Run:        run,
}

const wholeArena = "whole-arena"

var devicePaths = []string{"/internal/device/", "/internal/fs/", "/internal/baseline/", "/internal/route/"}

func run(pass *analysis.Pass) (interface{}, error) {
	g := callgraph.Of(pass)
	path := "/" + pass.Pkg.Path() + "/"
	if slices.ContainsFunc(devicePaths, func(dp string) bool { return strings.Contains(path, dp) }) {
		checkWholeArena(pass)
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if pass.Marked(obj, "hotpath") {
				checkHotpath(pass, g, g.Lookup(obj))
			}
		}
	}
	return nil, nil
}

func checkHotpath(pass *analysis.Pass, g *callgraph.Graph, f *callgraph.Func) {
	name := f.Obj.Name()
	for _, a := range f.Allocs {
		if a.Waived {
			continue
		}
		pass.Reportf(a.Pos, "hot path %s: %s allocates (fractos:alloc-ok with a reason if this branch is deliberately cold)", name, a.Kind)
	}
	for _, e := range f.Calls {
		if e.Waived {
			continue
		}
		if path := g.AllocPath(e.Callee); path != "" {
			pass.Reportf(e.Pos, "hot path %s: %s", name, path)
		}
	}
}

func checkWholeArena(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if fn := astq.CalledFunc(pass.TypesInfo, call); pass.Marked(fn, wholeArena) {
					pass.Reportf(call.Pos(), "%s materializes the whole registered arena on a device path; take a ranged view (ArenaRange) of the bytes used", fn.Name())
				}
			}
			return true
		})
	}
}
