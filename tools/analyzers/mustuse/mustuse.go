// Package mustuse is the errcheck of the failure signals FractOS's
// protocol rests on. A call's result may not be dropped — as a bare
// expression statement, by a go or defer statement, or by a blank
// identifier in its position — when
//
//   - the callee's declaration carries //fractos:mustuse, which covers
//     its last result: fabric.Net.Send's false is the one delivery
//     failure a sender can observe, and a dropped error of
//     services.Client.Register or Deregister leaks registry membership;
//   - or the result's named type carries //fractos:mustuse: a dropped
//     wire.Status swallows revocation, staleness and permission
//     failures.
//
// The directive's argument is the reason, quoted in the finding. A
// deliberate drop needs a `fractos:mustuse-ok <reason>` comment on the
// call's line or the line above.
package mustuse

import (
	"go/ast"
	"go/types"

	"fractos/tools/analyzers/analysis"
	"fractos/tools/analyzers/astq"
)

// Analyzer is the mustuse analysis.
var Analyzer = &analysis.Analyzer{
	Name:       "mustuse",
	Doc:        "results of //fractos:mustuse functions and of //fractos:mustuse types must not be dropped",
	Directives: []string{mustuse},
	Waiver:     "mustuse-ok",
	Run:        run,
}

const mustuse = "mustuse"

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					check(pass, call, -1)
				}
			case *ast.GoStmt:
				check(pass, n.Call, -1)
			case *ast.DeferStmt:
				check(pass, n.Call, -1)
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 {
					return true
				}
				call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
				if !ok {
					return true
				}
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
						check(pass, call, i)
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

// check reports call if it drops a result that must be used: all of its
// results when only < 0, else the one in position only.
func check(pass *analysis.Pass, call *ast.CallExpr, only int) {
	ft := pass.TypesInfo.TypeOf(call.Fun)
	if ft == nil || pass.TypesInfo.Types[call.Fun].IsType() {
		return // a conversion
	}
	sig, ok := ft.Underlying().(*types.Signature)
	if !ok {
		return
	}
	fn := astq.CalledFunc(pass.TypesInfo, call)
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if only >= 0 && i != only {
			continue
		}
		t := res.At(i).Type()
		reason, ok := typeDirective(pass, t)
		if i == res.Len()-1 {
			if r, marked := pass.Directive(fn, mustuse); marked {
				reason, ok = r, true
			}
		}
		if !ok {
			continue
		}
		if !pass.Suppressed(call.Pos()) {
			msg := types.TypeString(t, (*types.Package).Name) + " result of " + name(fn) + " is dropped"
			if reason != "" {
				msg += "; " + reason
			}
			pass.Reportf(call.Pos(), "%s", msg)
		}
		return
	}
}

// typeDirective reads //fractos:mustuse off t's named type.
func typeDirective(pass *analysis.Pass, t types.Type) (string, bool) {
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	return pass.Directive(named.Origin().Obj(), mustuse)
}

// name is how a finding names the callee: "Net.Send" for a method,
// "call" for a function value.
func name(fn *types.Func) string {
	if fn == nil {
		return "call"
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}
