package main

import (
	"go/ast"
	"go/types"
	"strings"
)

// simdet polices the determinism contract of the FractOS simulation:
// two runs of the same configuration must produce bit-identical event
// orders and metrics (internal/exp's determinism tests). Nondeterminism
// creeps in through four holes, each of which this analyzer closes:
//
//  1. Package time: its functions read or wait on the host clock, which
//     makes virtual-time behavior depend on host speed. Simulation code
//     calls none of them (its constants and time.Duration are fine) and
//     uses the kernel's virtual clock (sim.Task.Now/Sleep) instead.
//  2. The global math/rand source: it is shared, seeded from entropy
//     (or reseeded by other code), and not replayable. The only
//     functions of math/rand allowed are those that construct one of
//     its types — rand.New, rand.NewSource, rand.NewZipf — and
//     randomness comes from such seeded instances, e.g. the fault
//     layer's, seeded by fabric.Faults.Seed.
//  3. Raw goroutines: a `go` statement escapes the cooperative
//     scheduler, racing against kernel tasks. Only the kernel package
//     itself (internal/sim) may create goroutines — that is the
//     trampoline every Task runs on. Everything else must use
//     sim.Kernel.Spawn.
//  4. Map iteration feeding message or scheduling order: ranging over
//     a map and calling, inside the loop, a function whose declaration
//     carries //fractos:ordered (message transmission, task scheduling,
//     completion delivery, future resolution; an interface method such
//     as fabric.Handler.Deliver can carry it) makes delivery order
//     depend on Go's randomized map iteration. Keys must be collected
//     and sorted first (see Controller.peerIDs).
//
// The commands under cmd/ are exempt: the CLI drivers legitimately
// measure wall-clock time around whole simulation runs. Individual
// findings can be waived with a `fractos:nondet-ok <reason>` comment on
// or above the offending line; the module itself carries no such waiver
// (see the census in docs/STATIC_ANALYSIS.md).
var simdet = &analyzer{
	name:       "simdet",
	directives: []string{"ordered"},
	waiver:     "nondet-ok",
	run: func(p *pass) {
		if p.types.Name() == "main" && strings.Contains(p.path, "/cmd/") {
			return
		}
		inSim := strings.Contains(p.path, "internal/sim")
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkClock(p, n)
				case *ast.GoStmt:
					if !inSim {
						p.report(n.Pos(), "raw goroutine escapes the deterministic kernel; use sim.Kernel.Spawn (or move the code into internal/sim)")
					}
				case *ast.RangeStmt:
					checkMapRange(p, n)
				}
				return true
			})
		}
	},
}

// checkClock flags calls of package-level functions of time, and of
// math/rand unless they construct a value of a math/rand type.
func checkClock(p *pass, call *ast.CallExpr) {
	fn := calledFunc(p.info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		p.report(call.Pos(), "time.%s: simulation code calls no function of package time; use the kernel's virtual clock (sim.Task.Now/Sleep)", fn.Name())
	case "math/rand", "math/rand/v2":
		// A function that returns one value of a type declared in its
		// own package (*rand.Rand, rand.Source, *rand.Zipf) constructs
		// one of its types.
		if sig.Results().Len() == 1 {
			t := sig.Results().At(0).Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() == fn.Pkg() {
				return
			}
		}
		p.report(call.Pos(), "rand.%s uses the global math/rand source; use a seeded rand.New(rand.NewSource(seed)) (e.g. the fault layer's, seeded by fabric.Faults.Seed)", fn.Name())
	}
}

// checkMapRange flags ranging over a map when the loop body calls an
// order-sensitive function.
func checkMapRange(p *pass, rng *ast.RangeStmt) {
	if tv, ok := p.info.Types[rng.X]; !ok || tv.Type == nil {
		return
	} else if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	var sink *ast.CallExpr
	var sinkFn *types.Func
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != nil {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			fn := calledFunc(p.info, call)
			if _, marked := p.directive(fn, "ordered"); marked {
				sink, sinkFn = call, fn
				return false
			}
		}
		return true
	})
	if sink != nil && !p.waived(sink.Pos()) {
		p.report(rng.Pos(), "map iteration order feeds %s: delivery/scheduling order becomes nondeterministic; iterate over sorted keys instead", sinkFn.Name())
	}
}
