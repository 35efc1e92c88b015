// Package capcheck verifies the capability-validation invariant of
// the FractOS Controller (§3.5 of the paper): a syscall handler may
// only dereference the object tree on behalf of a Process after the
// Process's authority has been established through its capability
// space.
//
// The analyzer knows no function by name; the code says what each
// function is with a directive on its declaration:
//
//   - //fractos:cap-resolve establishes the calling Process's authority
//     through its capability space (resolveEntry, resolveCapSlots,
//     Space.Lookup);
//   - //fractos:cap-deref touches the owner's object tree on the
//     Process's behalf (resolveOwned, the own* owner-side steps,
//     deliverInvoke, revokeLocal, deriveDelegatee, and forward and ask,
//     which run an owner-side step at once for an object of the
//     caller's own Controller).
//
// Inside packages matching internal/core, every method of Controller
// named handle* (the syscall dispatch targets) that calls a cap-deref
// function must first, in source order, call a cap-resolve one. A
// handler that reaches the object tree without consulting the
// capability space is a confused-deputy bug: it would let a Process act
// on objects it holds no capability for.
//
// The slab-backed {index, generation} cid scheme adds two more
// invariants, checked over every function in internal/core:
//
//   - No raw cid forging: a type marked //fractos:minted (cap.CapID)
//     gets its values from one constructor (Space.Install), which
//     stamps the slot's generation; a conversion to it forges a handle
//     that bypasses the generation fence. Inside internal/core the only
//     legitimate cid sources are Install's return value and values
//     received over the wire (whose decoded fields are already typed).
//
//   - No borrow across a yield: a function marked //fractos:borrow
//     (Space.Peek) returns a pointer into slab storage, valid only until
//     the space next mutates. A function marked //fractos:yield can park
//     the task or hand control to another Controller (Task.Sleep,
//     Chan.Recv, the Wait methods, Controller.call, forward and ask), which
//     can interleave with a drop or purge that recycles the slot. A
//     borrowed pointer used after a yield is flagged; re-Peek after
//     resuming instead.
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
	Name:       "capcheck",
	Doc:        "syscall handlers must validate capabilities before dereferencing the object tree",
	Directives: []string{resolve, deref, minted, borrow, yield},
	Waiver:     "capcheck-ok",
	Run:        run,
}

const (
	resolve = "cap-resolve"
	deref   = "cap-deref"
	minted  = "minted"
	borrow  = "borrow"
	yield   = "yield"
)

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
			checkBorrows(pass, fd)
			if strings.HasPrefix(fd.Name.Name, "handle") && astq.ReceiverTypeName(fd) == "Controller" {
				checkHandler(pass, fd)
			}
		}
	}
	return nil, nil
}

// checkRawCids flags type conversions to a minted type.
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
		if !ok || !pass.Marked(named.Obj(), minted) || pass.Suppressed(call.Pos()) {
			return true
		}
		pass.Reportf(call.Pos(),
			"%s forges a capability id with a raw %s conversion; cids carry a slot generation and must come from Space.Install or the wire decoder",
			fd.Name.Name, named.Obj().Name())
		return true
	})
}

// checkBorrows flags uses of a borrowed pointer after a yield point.
// The check is positional, like checkHandler: a borrowed variable, a
// later yield call, and a still-later use of the variable form a
// retention hazard regardless of the branch structure between them —
// the slot can be recycled while the task is parked.
func checkBorrows(pass *analysis.Pass, fd *ast.FuncDecl) {
	// borrowed vars: object -> position of the borrowing assignment.
	borrowed := map[types.Object]token.Pos{}
	var yieldPos []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok || !pass.Marked(astq.CalledFunc(pass.TypesInfo, call), borrow) {
				return true
			}
			id, ok := n.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				borrowed[obj] = n.Pos()
			}
		case *ast.CallExpr:
			if pass.Marked(astq.CalledFunc(pass.TypesInfo, n), yield) {
				yieldPos = append(yieldPos, n.Pos())
			}
		}
		return true
	})
	if len(borrowed) == 0 || len(yieldPos) == 0 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.ObjectOf(id)
		from, ok := borrowed[obj]
		if !ok || id.Pos() <= from {
			return true
		}
		for _, y := range yieldPos {
			if from < y && y < id.Pos() {
				if !pass.Suppressed(id.Pos()) {
					pass.Reportf(id.Pos(),
						"%s uses slab Entry pointer %s across a yield point; the slot may have been recycled — re-Peek after resuming",
						fd.Name.Name, id.Name)
				}
				delete(borrowed, obj) // one report per variable
				return true
			}
		}
		return true
	})
}

// checkHandler walks the handler body in source order, requiring a
// cap-resolve call before any cap-deref call. FuncLit bodies
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
		fn := astq.CalledFunc(pass.TypesInfo, call)
		switch {
		case pass.Marked(fn, resolve):
			if firstResolve == token.NoPos || call.Pos() < firstResolve {
				firstResolve = call.Pos()
			}
		case pass.Marked(fn, deref):
			if (firstResolve == token.NoPos || call.Pos() < firstResolve) && !pass.Suppressed(call.Pos()) {
				pass.Reportf(call.Pos(),
					"%s dereferences the object tree via %s before any capability validation (a //fractos:cap-resolve call)",
					fd.Name.Name, fn.Name())
			}
		}
		return true
	})
}
