// Package epochguard enforces FractOS's failure-as-revocation
// discipline (§3.6 of the paper) on the inter-Controller protocol:
// a peer-message handler that touches the capability object tree must
// validate epochs first, because a rebooted Controller's old objects
// are implicitly revoked and a peer speaking under a stale epoch must
// be rejected, not served.
//
// Inside packages matching internal/core, every method of Controller
// named peer* or own* (the dispatchPeer targets: peer-message handlers
// and the owner-side steps a peer's request runs) whose call graph
// reaches the object tree (the Controller's tree field) must also reach
// an epoch consultation: a read of the Controller's own epoch or of a
// peer record's (both fields are named epoch). The analysis is
// transitive over same-package calls, so handlers that delegate to
// resolveOwned — which performs the epoch check — are recognized as
// guarded.
package epochguard

import (
	"go/ast"
	"go/types"
	"strings"

	"fractos/tools/analyzers/analysis"
	"fractos/tools/analyzers/astq"
)

// Analyzer is the epochguard analysis.
var Analyzer = &analysis.Analyzer{
	Name:   "epochguard",
	Doc:    "peer-message handlers touching the object tree must consult controller epochs",
	Waiver: "epochguard-ok",
	Run:    run,
}

type funcFacts struct {
	decl       *ast.FuncDecl
	epochCheck bool // reads its own or a peer's epoch
	treeTouch  bool // reads the object tree
	callees    []*types.Func
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !strings.Contains(pass.Pkg.Path(), "internal/core") {
		return nil, nil
	}

	facts := make(map[*types.Func]*funcFacts)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ff := &funcFacts{decl: fd}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					switch n.Sel.Name {
					case "epoch":
						ff.epochCheck = true
					case "tree":
						ff.treeTouch = true
					}
				case *ast.CallExpr:
					if callee := astq.CalledFunc(pass.TypesInfo, n); callee != nil && callee.Pkg() == pass.Pkg {
						ff.callees = append(ff.callees, callee)
					}
				}
				return true
			})
			facts[obj] = ff
		}
	}

	for obj, ff := range facts {
		name := obj.Name()
		if !(strings.HasPrefix(name, "peer") || strings.HasPrefix(name, "own")) || astq.ReceiverTypeName(ff.decl) != "Controller" {
			continue
		}
		if pass.Suppressed(ff.decl.Pos()) {
			continue
		}
		touches := reaches(facts, obj, func(f *funcFacts) bool { return f.treeTouch })
		if !touches {
			continue
		}
		checks := reaches(facts, obj, func(f *funcFacts) bool { return f.epochCheck })
		if !checks {
			pass.Reportf(ff.decl.Pos(),
				"peer handler %s reaches the object tree without consulting its own or the peer's epoch (stale-epoch peers must be rejected, §3.6)",
				name)
		}
	}
	return nil, nil
}

// reaches reports whether fn, or anything it transitively calls
// within the package, satisfies pred.
func reaches(facts map[*types.Func]*funcFacts, fn *types.Func, pred func(*funcFacts) bool) bool {
	seen := make(map[*types.Func]bool)
	var walk func(*types.Func) bool
	walk = func(f *types.Func) bool {
		if seen[f] {
			return false
		}
		seen[f] = true
		ff, ok := facts[f]
		if !ok {
			return false
		}
		if pred(ff) {
			return true
		}
		for _, callee := range ff.callees {
			if walk(callee) {
				return true
			}
		}
		return false
	}
	return walk(fn)
}
