package main

import (
	"go/ast"
	"go/types"
)

// mustuse is the errcheck of the failure signals FractOS's protocol
// rests on. A call's result may not be dropped — as a bare expression
// statement, by a go or defer statement, or by a blank identifier in
// its position — when
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
var mustuse = &analyzer{
	name:       "mustuse",
	directives: []string{"mustuse"},
	waiver:     "mustuse-ok",
	run: func(p *pass) {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
						checkDrop(p, call, -1)
					}
				case *ast.GoStmt:
					checkDrop(p, n.Call, -1)
				case *ast.DeferStmt:
					checkDrop(p, n.Call, -1)
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
							checkDrop(p, call, i)
						}
					}
				}
				return true
			})
		}
	},
}

// checkDrop reports call if it drops a result that must be used: all of
// its results when only < 0, else the one in position only.
func checkDrop(p *pass, call *ast.CallExpr, only int) {
	ft := p.info.TypeOf(call.Fun)
	if ft == nil || p.info.Types[call.Fun].IsType() {
		return // a conversion
	}
	sig, ok := ft.Underlying().(*types.Signature)
	if !ok {
		return
	}
	fn := calledFunc(p.info, call)
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if only >= 0 && i != only {
			continue
		}
		t := res.At(i).Type()
		var reason string
		ok := false
		if named, isNamed := t.(*types.Named); isNamed {
			reason, ok = p.directive(named.Origin().Obj(), "mustuse")
		}
		if i == res.Len()-1 {
			if r, marked := p.directive(fn, "mustuse"); marked {
				reason, ok = r, true
			}
		}
		if !ok {
			continue
		}
		// The callee is named "Net.Send" for a method, "call" for a
		// function value.
		callee := "call"
		if fn != nil {
			callee = fn.Name()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				rt := recv.Type()
				if ptr, isPtr := rt.(*types.Pointer); isPtr {
					rt = ptr.Elem()
				}
				if named, isNamed := rt.(*types.Named); isNamed {
					callee = named.Obj().Name() + "." + callee
				}
			}
		}
		msg := types.TypeString(t, (*types.Package).Name) + " result of " + callee + " is dropped"
		if reason != "" {
			msg += "; " + reason
		}
		p.report(call.Pos(), "%s", msg)
		return
	}
}
