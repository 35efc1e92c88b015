// Package panicfree polices the repo's failure-handling discipline.
// FractOS treats node failure as capability revocation (§3.6): errors
// on syscall and peer paths travel as wire.Status values so the
// distributed protocol can unwind them. A panic, by contrast, tears
// down the entire simulated data center — controllers, fabric, and
// every co-hosted node at once — which no real deployment would do.
//
// The analyzer therefore forbids direct calls to the builtin panic
// outside internal/assert, the one package allowed to terminate the
// process (its helpers mark genuine programmer-invariant violations
// and print a diagnosable report first). Sites that must panic for
// mechanical reasons — the kernel's kill-signal unwinding, re-panics
// after recover — carry a `fractos:panic-ok <reason>` waiver.
package panicfree

import (
	"go/ast"
	"go/types"
	"strings"

	"fractos/tools/analyzers/analysis"
)

// Analyzer is the panicfree analysis.
var Analyzer = &analysis.Analyzer{
	Name:   "panicfree",
	Doc:    "forbid builtin panic outside internal/assert; failures must flow as wire.Status or through assert helpers",
	Waiver: "panic-ok",
	Run:    run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if strings.Contains(pass.Pkg.Path(), "internal/assert") {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			if pass.Suppressed(call.Pos()) {
				return true
			}
			pass.Reportf(call.Pos(),
				"panic tears down the whole simulated data center; return a wire.Status on protocol paths or use internal/assert for invariant violations")
			return true
		})
	}
	return nil, nil
}
