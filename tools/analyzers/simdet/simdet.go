// Package simdet polices the determinism contract of the FractOS
// simulation: two runs of the same configuration must produce
// bit-identical event orders and metrics (internal/exp's determinism
// test). Nondeterminism creeps in through four holes, each of which
// this analyzer closes:
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
//     and sorted first (see Controller.sortedPeers).
//
// cmd/* packages are exempt: the CLI drivers legitimately measure
// wall-clock time around whole simulation runs. Individual findings
// can be waived with a `fractos:nondet-ok <reason>` comment on or
// above the offending line; the module itself carries no such waiver
// (see the census in docs/STATIC_ANALYSIS.md).
package simdet

import (
	"go/ast"
	"go/types"
	"strings"

	"fractos/tools/analyzers/analysis"
	"fractos/tools/analyzers/astq"
)

// Analyzer is the simdet analysis.
var Analyzer = &analysis.Analyzer{
	Name:       "simdet",
	Doc:        "forbid package time, global rand, raw goroutines, and order-sensitive map iteration in simulator-driven code",
	Directives: []string{ordered},
	Waiver:     "nondet-ok",
	Run:        run,
}

const ordered = "ordered"

func run(pass *analysis.Pass) (interface{}, error) {
	path := pass.Pkg.Path()
	if strings.HasPrefix(path, "cmd/") || strings.Contains(path, "/cmd/") {
		return nil, nil
	}
	inSim := strings.Contains(path, "internal/sim")

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.GoStmt:
				if !inSim && !pass.Suppressed(n.Pos()) {
					pass.Reportf(n.Pos(),
						"raw goroutine escapes the deterministic kernel; use sim.Kernel.Spawn (or move the code into internal/sim)")
				}
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

// checkCall flags calls of package-level functions of time, and of
// math/rand unless they construct a value of a math/rand type.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := astq.CalledFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	var msg string
	switch fn.Pkg().Path() {
	case "time":
		msg = "time.%s: simulation code calls no function of package time; use the kernel's virtual clock (sim.Task.Now/Sleep)"
	case "math/rand", "math/rand/v2":
		if constructs(fn) {
			return
		}
		msg = "rand.%s uses the global math/rand source; use a seeded rand.New(rand.NewSource(seed)) (e.g. the fault layer's, seeded by fabric.Faults.Seed)"
	default:
		return
	}
	if !pass.Suppressed(call.Pos()) {
		pass.Reportf(call.Pos(), msg, fn.Name())
	}
}

// constructs reports whether fn returns one value of a type declared
// in fn's own package (*rand.Rand, rand.Source, *rand.Zipf).
func constructs(fn *types.Func) bool {
	res := fn.Type().(*types.Signature).Results()
	if res.Len() != 1 {
		return false
	}
	t := res.At(0).Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == fn.Pkg()
}

// checkMapRange flags ranging over a map when the loop body calls an
// order-sensitive function.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	if !astq.IsMap(pass.TypesInfo, rng.X) {
		return
	}
	var sink *ast.CallExpr
	var sinkFn *types.Func
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != nil {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := astq.CalledFunc(pass.TypesInfo, call); pass.Marked(fn, ordered) {
				sink, sinkFn = call, fn
				return false
			}
		}
		return true
	})
	if sink == nil || pass.Suppressed(rng.Pos()) || pass.Suppressed(sink.Pos()) {
		return
	}
	pass.Reportf(rng.Pos(),
		"map iteration order feeds %s: delivery/scheduling order becomes nondeterministic; iterate over sorted keys instead", sinkFn.Name())
}
