package main

import (
	"go/ast"
	"go/types"
	"strings"
)

// panicfree polices the repo's failure-handling discipline. FractOS
// treats node failure as capability revocation (§3.6): errors on
// syscall and peer paths travel as wire.Status values so the
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
var panicfree = &analyzer{
	name:   "panicfree",
	waiver: "panic-ok",
	run: func(p *pass) {
		if strings.Contains(p.path, "internal/assert") {
			return
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
						if _, builtin := p.info.Uses[id].(*types.Builtin); builtin {
							p.report(call.Pos(), "panic tears down the whole simulated data center; return a wire.Status on protocol paths or use internal/assert for invariant violations")
						}
					}
				}
				return true
			})
		}
	},
}
