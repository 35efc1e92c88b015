// Package astq holds small AST/type query helpers shared by the
// fractos-vet analyzers.
package astq

import (
	"go/ast"
	"go/types"
)

// IsMap reports whether the expression's type is (or aliases) a map.
func IsMap(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// CalledFunc resolves a call to the *types.Func it statically invokes
// (function or method), or nil for indirect/builtin calls.
func CalledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fn].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fn.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}
