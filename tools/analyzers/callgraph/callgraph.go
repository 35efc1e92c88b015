// Package callgraph builds a module-wide call graph with per-function
// allocation summaries for allocfree. It is a fact layer, not an
// analyzer: Of(pass) returns the graph for the driver's module view,
// building it once and caching it in the Pass's Module fact cache so
// every package shares the same graph.
//
// Per function the graph records:
//
//   - direct call edges resolved through the type checker (indirect
//     calls — interface methods, function values — are not resolved;
//     analyses over the graph are therefore may-miss across dynamic
//     dispatch and say so in their documentation);
//   - allocation sources in the body: heap composite literals, slice
//     and map literals, make, new, append growth, string
//     concatenation, string<->[]byte conversions, function literals
//     (closure capture), calls into package fmt, and interface boxing
//     at variadic ...interface{} call sites.
//
// Allocation sources and call edges whose line (or the line above)
// carries a fractos:alloc-ok comment are marked Waived; the marker is
// the documented escape hatch for deliberate cold-path allocations.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"

	"fractos/tools/analyzers/analysis"
	"fractos/tools/analyzers/astq"
)

// allocOK is the waiver of allocfree.
const allocOK = analysis.Prefix + "alloc-ok"

// Alloc is one allocation source inside a function body.
type Alloc struct {
	Pos    token.Pos
	Kind   string // "make", "append growth", "fmt call", ...
	Waived bool   // line carries fractos:alloc-ok
}

// Edge is one statically resolved call site.
type Edge struct {
	Pos    token.Pos
	Callee *types.Func // origin (generic) function object
	Waived bool        // call line carries fractos:alloc-ok
}

// Func is the summary of one declared function or method.
type Func struct {
	Obj *types.Func

	Allocs []Alloc
	Calls  []Edge
}

// Graph is the module-wide call graph.
type Graph struct {
	Fset  *token.FileSet
	Funcs map[*types.Func]*Func

	reach map[*types.Func]string // memoized AllocPath results
}

const factKey = "fractos/callgraph"

// Of returns the call graph for the pass's module view, building and
// caching it on first use.
func Of(pass *analysis.Pass) *Graph {
	m := pass.Module
	return m.Fact(factKey, func() interface{} {
		return build(m.Fset, m.Packages)
	}).(*Graph)
}

// Lookup returns the summary for fn (normalized to its generic
// origin), or nil for functions outside the module view.
func (g *Graph) Lookup(fn *types.Func) *Func {
	if fn == nil {
		return nil
	}
	return g.Funcs[fn.Origin()]
}

func build(fset *token.FileSet, pkgs []*analysis.ModulePackage) *Graph {
	g := &Graph{
		Fset:  fset,
		Funcs: make(map[*types.Func]*Func),
		reach: make(map[*types.Func]string),
	}
	for _, mp := range pkgs {
		for _, file := range mp.Files {
			waived := waiverLines(fset, file)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := mp.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fn := &Func{Obj: obj}
				scanBody(fset, mp.TypesInfo, fd.Body, waived, fn)
				g.Funcs[obj] = fn
			}
		}
	}
	return g
}

// waiverLines collects the lines of a file carrying fractos:alloc-ok.
func waiverLines(fset *token.FileSet, file *ast.File) map[int]bool {
	var lines map[int]bool
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.Contains(c.Text, allocOK) {
				continue
			}
			if lines == nil {
				lines = make(map[int]bool)
			}
			lines[fset.Position(c.Pos()).Line] = true
		}
	}
	return lines
}

func isWaived(fset *token.FileSet, waived map[int]bool, pos token.Pos) bool {
	if waived == nil {
		return false
	}
	line := fset.Position(pos).Line
	return waived[line] || waived[line-1]
}

// scanBody records allocation sources and call edges of one body.
// Function literal bodies are not descended into: the literal itself
// is the allocation that happens here; what it does when invoked is
// charged to whoever invokes it.
func scanBody(fset *token.FileSet, info *types.Info, body *ast.BlockStmt, waived map[int]bool, fn *Func) {
	addAlloc := func(pos token.Pos, kind string) {
		fn.Allocs = append(fn.Allocs, Alloc{Pos: pos, Kind: kind, Waived: isWaived(fset, waived, pos)})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			addAlloc(n.Pos(), "function literal (closure)")
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					addAlloc(n.Pos(), "heap composite literal")
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					addAlloc(n.Pos(), "slice literal")
				case *types.Map:
					addAlloc(n.Pos(), "map literal")
				}
			}
			return true
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := info.Types[n]; ok && tv.Type != nil && isStringType(tv.Type) && !isConstExpr(info, n) {
					addAlloc(n.Pos(), "string concatenation")
				}
			}
		case *ast.CallExpr:
			return callNode(fset, info, waived, fn, addAlloc, n)
		}
		return true
	})
}

// callNode classifies one call expression; the return value tells the
// walk whether to descend into the call's children.
func callNode(fset *token.FileSet, info *types.Info, waived map[int]bool, fn *Func, addAlloc func(token.Pos, string), call *ast.CallExpr) bool {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				addAlloc(call.Pos(), "make")
			case "new":
				addAlloc(call.Pos(), "new")
			case "append":
				addAlloc(call.Pos(), "append growth")
			}
			return true
		}
	}
	// Type conversions: only string<->byte/rune-slice forms allocate.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if convAllocates(info, tv.Type, call.Args[0]) {
			addAlloc(call.Pos(), "string conversion")
		}
		return true
	}
	if astq.PackageOfCall(info, call) == "fmt" {
		addAlloc(call.Pos(), "fmt call")
		return true
	}
	callee := astq.CalledFunc(info, call)
	if callee != nil {
		callee = callee.Origin()
		fn.Calls = append(fn.Calls, Edge{
			Pos:    call.Pos(),
			Callee: callee,
			Waived: isWaived(fset, waived, call.Pos()),
		})
		if boxesVariadicInterface(callee, call) {
			addAlloc(call.Pos(), "interface boxing (variadic ...interface{})")
		}
	}
	return true
}

// convAllocates reports whether the conversion T(arg) copies memory:
// string <-> []byte/[]rune in either direction.
func convAllocates(info *types.Info, dst types.Type, arg ast.Expr) bool {
	src := types.Type(nil)
	if tv, ok := info.Types[arg]; ok {
		src = tv.Type
		if tv.Value != nil {
			return false // constant conversion, folded at compile time
		}
	}
	if src == nil {
		return false
	}
	dstStr, srcStr := isStringType(dst), isStringType(src)
	dstSl, srcSl := isByteOrRuneSlice(dst), isByteOrRuneSlice(src)
	return (dstStr && srcSl) || (dstSl && srcStr)
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// boxesVariadicInterface reports whether the call passes loose
// arguments into a ...interface{} parameter (each one is boxed).
func boxesVariadicInterface(callee *types.Func, call *ast.CallExpr) bool {
	sig, ok := callee.Type().(*types.Signature)
	if !ok || !sig.Variadic() || call.Ellipsis.IsValid() {
		return false
	}
	last := sig.Params().At(sig.Params().Len() - 1)
	sl, ok := last.Type().Underlying().(*types.Slice)
	if !ok {
		return false
	}
	if _, isIface := sl.Elem().Underlying().(*types.Interface); !isIface {
		return false
	}
	return len(call.Args) >= sig.Params().Len()
}

// AllocPath returns a human-readable description of the first
// allocation reachable from fn through unwaived same-module call
// edges, or "" if fn's closure is allocation-free. Results are
// memoized; recursion is cut optimistically (a cycle member is treated
// as clean while its own computation is in flight).
func (g *Graph) AllocPath(fn *types.Func) string {
	return g.allocPath(fn.Origin(), make(map[*types.Func]bool))
}

func (g *Graph) allocPath(fn *types.Func, visiting map[*types.Func]bool) string {
	if s, ok := g.reach[fn]; ok {
		return s
	}
	if visiting[fn] {
		return ""
	}
	f := g.Funcs[fn]
	if f == nil {
		return "" // outside the module view: not traversed
	}
	visiting[fn] = true
	result := ""
	for _, a := range f.Allocs {
		if a.Waived {
			continue
		}
		result = fn.Name() + " has " + a.Kind + " at " + g.shortPos(a.Pos)
		break
	}
	if result == "" {
		for _, e := range f.Calls {
			if e.Waived {
				continue
			}
			if sub := g.allocPath(e.Callee, visiting); sub != "" {
				result = fn.Name() + " calls " + sub
				break
			}
		}
	}
	delete(visiting, fn)
	g.reach[fn] = result
	return result
}

func (g *Graph) shortPos(pos token.Pos) string {
	p := g.Fset.Position(pos)
	return filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line)
}
