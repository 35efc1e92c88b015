// Package capcheck verifies the capability-validation invariant of
// the FractOS Controller (§3.5 of the paper): a syscall handler may
// only dereference the object tree on behalf of a Process after the
// Process's authority has been established through its capability
// space.
//
// Concretely, inside packages matching internal/core, every method of
// Controller named handle* (the syscall dispatch targets) that calls
// an owner-side dereference — resolveOwned, deriveMemLocal,
// deriveReqLocal, deliverInvoke, revokeLocal, deriveDelegatee — must
// first (in source order) resolve the caller's capability via
// resolveEntry, resolveCapSlots, or a capability-space Lookup. A
// handler that reaches the object tree without consulting the
// capability space is a confused-deputy bug: it would let a Process
// act on objects it holds no capability for.
//
// The slab-backed {index, generation} cid scheme adds two more
// invariants, also enforced here:
//
//   - No raw cid forging: converting an integer to cap.CapID mints a
//     handle without going through Space.Install, bypassing the
//     generation fence that keeps purged cids permanently invalid.
//     Inside internal/core the only legitimate cid sources are
//     Install's return value and values received over the wire (whose
//     decoded fields are already typed). Any CapID(...) conversion is
//     flagged.
//
//   - No Entry retention across yields: Space.Peek returns a pointer
//     into slab storage, valid only until the space next mutates. A
//     handler that parks its task (Sleep/Recv/Wait/Yield) or issues an
//     inter-Controller call can interleave with a drop or purge that
//     recycles the slot, leaving the pointer aimed at an unrelated
//     capability. Peek results used after a potential yield point are
//     flagged; re-Peek after resuming instead.
package capcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"fractos/tools/analyzers/analysis"
	"fractos/tools/analyzers/astq"
)

// Analyzer is the capcheck analysis.
var Analyzer = &analysis.Analyzer{
	Name: "capcheck",
	Doc:  "syscall handlers must validate capabilities before dereferencing the object tree",
	Run:  run,
}

// resolvers establish the calling Process's authority.
var resolvers = map[string]bool{
	"resolveEntry":    true,
	"resolveCapSlots": true,
	"Lookup":          true, // ps.space.Lookup
}

// derefs touch the owner's object tree on the Process's behalf.
var derefs = map[string]bool{
	"resolveOwned":    true,
	"deriveMemLocal":  true,
	"deriveReqLocal":  true,
	"deliverInvoke":   true,
	"revokeLocal":     true,
	"deriveDelegatee": true,
}

// yields are calls that can park the task or hand control to another
// Controller before the next statement runs; slab Entry pointers must
// not survive them.
var yields = map[string]bool{
	"Sleep":   true,
	"Recv":    true,
	"Wait":    true,
	"Yield":   true,
	"call":    true, // inter-Controller RPC (async continuation)
	"forward": true, // call on behalf of a syscall
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !strings.Contains(pass.Pkg.Path(), "internal/core") {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkRawCids(pass, fd)
			checkEntryRetention(pass, fd)
			if !strings.HasPrefix(fd.Name.Name, "handle") {
				continue
			}
			if astq.ReceiverTypeName(fd) != "Controller" {
				continue
			}
			checkHandler(pass, fd)
		}
	}
	return nil, nil
}

// checkRawCids flags type conversions to CapID: cids are minted by
// Space.Install (carrying the slot's generation) — a conversion
// forges one from a bare index.
func checkRawCids(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		tv, ok := pass.TypesInfo.Types[call.Fun]
		if !ok || !tv.IsType() {
			return true
		}
		named, ok := tv.Type.(*types.Named)
		if !ok || named.Obj().Name() != "CapID" {
			return true
		}
		if pass.Suppressed(call.Pos(), "fractos:capcheck-ok") {
			return true
		}
		pass.Reportf(call.Pos(),
			"%s forges a capability id with a raw CapID conversion; cids carry a slot generation and must come from Space.Install or the wire decoder",
			fd.Name.Name)
		return true
	})
}

// checkEntryRetention flags uses of a Space.Peek result after a yield
// point. The check is positional, like checkHandler: a Peek-derived
// variable, a later yield call, and a still-later use of the variable
// form a retention hazard regardless of the branch structure between
// them — the slot can be recycled while the task is parked.
func checkEntryRetention(pass *analysis.Pass, fd *ast.FuncDecl) {
	// entry vars: object -> position of the Peek assignment.
	peeked := map[types.Object]token.Pos{}
	var yieldPos []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok || astq.CalleeName(call) != "Peek" {
				return true
			}
			id, ok := n.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				peeked[obj] = n.Pos()
			}
		case *ast.CallExpr:
			if yields[astq.CalleeName(n)] {
				yieldPos = append(yieldPos, n.Pos())
			}
		}
		return true
	})
	if len(peeked) == 0 || len(yieldPos) == 0 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.ObjectOf(id)
		from, ok := peeked[obj]
		if !ok || id.Pos() <= from {
			return true
		}
		for _, y := range yieldPos {
			if from < y && y < id.Pos() {
				if !pass.Suppressed(id.Pos(), "fractos:capcheck-ok") {
					pass.Reportf(id.Pos(),
						"%s uses slab Entry pointer %s across a yield point; the slot may have been recycled — re-Peek after resuming",
						fd.Name.Name, id.Name)
				}
				delete(peeked, obj) // one report per variable
				return true
			}
		}
		return true
	})
}

// checkHandler walks the handler body in source order, requiring a
// resolver call before any dereference call. FuncLit bodies
// (continuations of inter-Controller calls, spawned sub-tasks) are
// included: they run strictly after the statements that precede them
// in the source, so positional ordering remains a sound
// approximation of execution order for this linear handler style.
func checkHandler(pass *analysis.Pass, fd *ast.FuncDecl) {
	firstResolve := token.NoPos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := astq.CalleeName(call)
		switch {
		case resolvers[name]:
			if firstResolve == token.NoPos || call.Pos() < firstResolve {
				firstResolve = call.Pos()
			}
		case derefs[name]:
			if firstResolve == token.NoPos || call.Pos() < firstResolve {
				if pass.Suppressed(call.Pos(), "fractos:capcheck-ok") {
					return true
				}
				pass.Reportf(call.Pos(),
					"%s dereferences the object tree via %s before any capability validation (resolveEntry/resolveCapSlots/Lookup)",
					fd.Name.Name, name)
			}
		}
		return true
	})
}
