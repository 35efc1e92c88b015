// Package poolcheck enforces the lifecycle of pooled resources:
// values obtained from a function annotated //fractos:pool-acquire
// must be released exactly once on every control-flow path, must not
// be used after release, and must not be retained (stored into fields,
// globals, or closures) past the documented handoff points.
//
// Each acquired variable is followed along the paths of the shared
// walker (tools/analyzers/flow) through the rest of the statement list
// that holds the acquire, where its scope ends. Release events are calls to
// functions annotated //fractos:pool-release or //fractos:pool-handoff
// whose bound operand — the first parameter, or the receiver for
// parameterless methods — is the tracked variable; returning the
// tracked variable transfers ownership to the caller and also counts
// as the path's release. Deferred releases (directly or inside a
// deferred function literal) are credited at every exit.
//
// Limitations, by design: ownership passed through unannotated helper
// calls is not tracked (the call is ignored), borrows are tracked one
// level deep (x := v.Method() marks x as a borrow of v; values derived
// from x are not), a closure that captures a pooled value outlives
// the analysis — capture is therefore reported and must be waived
// where the surrounding machinery guarantees the lifecycle — and
// reassigning the variable ends its tracking. The walker's own limits
// apply too: a value leaked through break or continue is not reported.
//
// Waiver: a `fractos:pool-ok <reason>` comment on the reported line or
// the line above.
package poolcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"fractos/tools/analyzers/analysis"
	"fractos/tools/analyzers/astq"
	"fractos/tools/analyzers/flow"
)

// Analyzer is the poolcheck analysis.
var Analyzer = &analysis.Analyzer{
	Name:       "poolcheck",
	Doc:        "pooled resources (fractos:pool-* annotations) must be released exactly once and not used after release",
	Directives: []string{acquire, release, handoff},
	Waiver:     "pool-ok",
	Run:        run,
}

const (
	acquire = "pool-acquire"
	release = "pool-release"
	handoff = "pool-handoff"
)

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if pass.Marked(obj, acquire) || pass.Marked(obj, release) || pass.Marked(obj, handoff) {
				// Pool internals (free-list push/pop etc.) are exempt:
				// they implement the lifecycle being checked.
				continue
			}
			checkScope(pass, fd.Body)
		}
	}
	return nil, nil
}

// checkScope finds acquire sites in body (not descending into nested
// function literals, which are their own scopes) and runs the
// lifecycle walk for each; then recurses into the nested literals.
func checkScope(pass *analysis.Pass, body *ast.BlockStmt) {
	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lits = append(lits, n)
			return false
		case *ast.AssignStmt:
			checkAcquireAssign(pass, body, n)
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if pool, ok := acquirePool(pass, call); ok && !pass.Suppressed(call.Pos()) {
					pass.Reportf(call.Pos(), "result of %s (pool %s) is discarded; pooled resources must be bound and released exactly once", astq.CalleeName(call), pool)
				}
			}
		}
		return true
	})
	for _, lit := range lits {
		checkScope(pass, lit.Body)
	}
}

// checkAcquireAssign begins tracking for `v := acquire()` forms.
func checkAcquireAssign(pass *analysis.Pass, body *ast.BlockStmt, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		pool, ok := acquirePool(pass, call)
		if !ok {
			continue
		}
		id, ok := as.Lhs[i].(*ast.Ident)
		if !ok || id.Name == "_" {
			if !pass.Suppressed(call.Pos()) {
				pass.Reportf(call.Pos(), "result of %s (pool %s) is not bound to a variable; its release cannot be verified", astq.CalleeName(call), pool)
			}
			continue
		}
		// The variable goes out of scope with the statement list that
		// holds the acquire.
		obj := objOf(pass.TypesInfo, id)
		rest, ok := flow.Enclosing(body, as)
		if obj == nil || !ok {
			continue
		}
		w := &walker{
			pass: pass, v: obj, pool: pool,
			acquire: as, borrows: make(map[types.Object]bool),
		}
		if fall, term := flow.Walk(w, rest, flow.Start); !term {
			w.checkExit(as.Pos(), fall, "scope ends")
		}
	}
}

// acquirePool returns the pool name if call is an annotated acquire.
func acquirePool(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	return pass.Directive(astq.CalledFunc(pass.TypesInfo, call), acquire)
}

// walker is the flow.Rules of one acquired variable's lifecycle:
// releases and handoffs of it are discharges, deferred ones discharge
// at every exit, returning it transfers ownership.
type walker struct {
	pass    *analysis.Pass
	v       types.Object
	pool    string
	acquire *ast.AssignStmt
	borrows map[types.Object]bool

	lost     bool // v reassigned; tracking abandoned
	reported bool // one finding per acquire; follow-on noise suppressed
}

func (w *walker) name() string { return w.v.Name() }

func (w *walker) reportf(pos token.Pos, format string, args ...interface{}) {
	if w.reported || w.lost || w.pass.Suppressed(pos) {
		return
	}
	w.pass.Reportf(pos, format, args...)
	w.reported = true
}

// is reports whether e is the tracked variable itself.
func (w *walker) is(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && objOf(w.pass.TypesInfo, id) == w.v
}

// checkExit validates a path's final release total.
func (w *walker) checkExit(pos token.Pos, s flow.State, how string) {
	t := s.Total()
	if t&flow.Zero != 0 {
		w.reportf(w.acquire.Pos(), "pooled %s (pool %s) acquired here may not be released on the path where %s", w.name(), w.pool, how)
	} else if t&flow.Many != 0 {
		w.reportf(pos, "pooled %s (pool %s) may be released more than once on the path where %s", w.name(), w.pool, how)
	}
}

func (w *walker) Simple(s ast.Stmt, in flow.State) flow.State {
	switch s := s.(type) {
	case *ast.DeferStmt:
		return w.deferStmt(s, in)
	case *ast.GoStmt:
		if mentionsObj(w.pass.TypesInfo, s.Call, w.v) {
			w.reportf(s.Pos(), "pooled %s (pool %s) escapes into a goroutine; lifecycle cannot be verified", w.name(), w.pool)
		}
		return in
	case *ast.AssignStmt:
		return w.assign(s, in)
	case *ast.SendStmt:
		if mentionsObj(w.pass.TypesInfo, s.Value, w.v) {
			w.reportf(s.Pos(), "pooled %s (pool %s) sent on a channel; retention past handoff needs a fractos:pool-ok waiver", w.name(), w.pool)
		}
	}
	return w.step(s, in)
}

func (w *walker) Expr(e ast.Expr, in flow.State) flow.State { return w.step(e, in) }

// Loop checks that iterations cannot accumulate releases: a body that
// releases and falls through to the next iteration releases again.
func (w *walker) Loop(loop ast.Stmt, body *ast.BlockStmt, in flow.State) flow.State {
	fall, term := flow.Walk(w, body.List, in)
	if !term && fall.Done != in.Done {
		w.reportf(loop.Pos(), "pooled %s (pool %s) is released inside this loop and may be released again on the next iteration", w.name(), w.pool)
	}
	return in.Join(fall)
}

// deferStmt credits deferred releases, directly or inside a deferred
// closure; a defer that touches the variable without releasing it
// cannot be verified.
func (w *walker) deferStmt(s *ast.DeferStmt, in flow.State) flow.State {
	var deferred ast.Node = s.Call
	what := "used in defer without releasing; lifecycle cannot be verified"
	if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		deferred, what = lit.Body, "captured by deferred closure that does not release it"
	}
	released := false
	ast.Inspect(deferred, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && w.isReleaseOf(call) {
			in.Deferred, released = in.Deferred.Add(flow.One), true
		}
		return true
	})
	if !released && mentionsObj(w.pass.TypesInfo, deferred, w.v) {
		w.reportf(s.Pos(), "pooled %s (pool %s) %s", w.name(), w.pool, what)
	}
	return in
}

// assign handles stores: reassignment of v ends tracking, borrows are
// registered, stores of v into non-local destinations are retention.
func (w *walker) assign(s *ast.AssignStmt, in flow.State) flow.State {
	for _, rhs := range s.Rhs {
		in = w.step(rhs, in)
	}
	for _, lhs := range s.Lhs {
		if w.is(lhs) {
			w.lost = true
			return in
		}
	}
	// Borrow registration: x := v.Method() / x := v.Field (single
	// assign) where x has reference semantics, tracked so later
	// use-after-release through the borrow is caught. Value copies
	// (ints, structs) are safe and not tracked.
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
		if id, ok := s.Lhs[0].(*ast.Ident); ok && w.isBorrowExpr(s.Rhs[0]) {
			if obj := objOf(w.pass.TypesInfo, id); obj != nil && isRefType(obj.Type()) {
				w.borrows[obj] = true
			}
		}
	}
	// Retention: v stored into a field, element, dereference, or a
	// package-level variable outlives this frame.
	for i, lhs := range s.Lhs {
		retains := false
		switch lhs := lhs.(type) {
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			retains = true
		case *ast.Ident:
			obj := objOf(w.pass.TypesInfo, lhs)
			retains = obj != nil && obj.Parent() == w.pass.Pkg.Scope()
		}
		if !retains {
			continue
		}
		rhs := s.Rhs[0]
		if len(s.Rhs) == len(s.Lhs) {
			rhs = s.Rhs[i]
		}
		if mentionsObj(w.pass.TypesInfo, rhs, w.v) {
			w.reportf(s.Pos(), "pooled %s (pool %s) stored outside the local frame; retention past handoff needs a fractos:pool-ok waiver", w.name(), w.pool)
		}
	}
	return in
}

// isRefType reports whether values of t alias underlying storage.
func isRefType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// Return transfers ownership when it returns the variable, and
// otherwise checks the path's exit.
func (w *walker) Return(r *ast.ReturnStmt, in flow.State) {
	transfers := false
	for _, res := range r.Results {
		if w.is(res) {
			transfers = true
		} else {
			in = w.step(res, in)
		}
	}
	switch {
	case !transfers:
		w.checkExit(r.Pos(), in, "this return is taken")
	case in.Done != flow.Zero:
		w.reportf(r.Pos(), "pooled %s (pool %s) returned after it may already have been released", w.name(), w.pool)
	case in.Deferred != flow.Zero:
		w.reportf(r.Pos(), "pooled %s (pool %s) returned while a deferred call releases it", w.name(), w.pool)
	}
}

// step advances the state across what n evaluates: releases add to
// the count (reporting definite double releases), other uses after a
// definite release are reported, closures capturing the value are
// retention.
func (w *walker) step(n ast.Node, in flow.State) flow.State {
	out := in
	var use token.Pos
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if mentionsObj(w.pass.TypesInfo, n, w.v) {
				w.reportf(n.Pos(), "pooled %s (pool %s) captured by a function literal; the closure may outlive the release point (fractos:pool-ok if the scheduler guarantees otherwise)", w.name(), w.pool)
			}
			return false
		case *ast.CallExpr:
			if w.isReleaseOf(n) {
				if out.Done&flow.Zero == 0 { // definitely already released
					w.reportf(n.Pos(), "pooled %s (pool %s) released again here", w.name(), w.pool)
				}
				out.Done = out.Done.Add(flow.One)
				return false
			}
		case *ast.Ident:
			if obj := objOf(w.pass.TypesInfo, n); use == token.NoPos && (obj == w.v || w.borrows[obj]) {
				use = n.Pos()
			}
		}
		return true
	})
	if use != token.NoPos && in.Done&flow.Zero == 0 {
		w.reportf(use, "use of pooled %s (pool %s) after it was released", w.name(), w.pool)
	}
	return out
}

// isReleaseOf reports whether call releases or hands off the tracked
// variable: the callee carries a pool-release/pool-handoff annotation
// for the same pool and its bound operand resolves to v.
func (w *walker) isReleaseOf(call *ast.CallExpr) bool {
	callee := astq.CalledFunc(w.pass.TypesInfo, call)
	pool, ok := w.pass.Directive(callee, release)
	if !ok {
		pool, ok = w.pass.Directive(callee, handoff)
	}
	if !ok || pool != w.pool {
		return false
	}
	op := boundOperand(callee, call)
	return op != nil && w.is(op)
}

// isBorrowExpr reports whether e reads directly off the tracked
// variable: v.Method(...) or v.Field.
func (w *walker) isBorrowExpr(e ast.Expr) bool {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		e = call.Fun
	}
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	return ok && w.is(sel.X)
}

// boundOperand returns the expression a release call releases: the
// first argument, or the receiver for parameterless methods.
func boundOperand(callee *types.Func, call *ast.CallExpr) ast.Expr {
	sig := callee.Type().(*types.Signature)
	if sig.Params().Len() >= 1 && len(call.Args) >= 1 {
		return call.Args[0]
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sig.Recv() != nil {
		return sel.X
	}
	return nil
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// mentionsObj reports whether any identifier under n resolves to obj.
func mentionsObj(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && objOf(info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}
