// Package poolcheck enforces the lifecycle of pooled resources:
// values obtained from a function annotated //fractos:pool-acquire
// must be released exactly once on every control-flow path, must not
// be used after release, and must not be retained (stored into fields,
// globals, or closures) past the documented handoff points.
//
// The analysis is path-sensitive in the style of statuscheck: a small
// counts lattice {0, 1, 2+} is threaded over if/switch/return/defer,
// per tracked variable, within the function (or function literal)
// where the resource is acquired. Release events are calls to
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
// from x are not), and a closure that captures a pooled value outlives
// the analysis — capture is therefore reported and must be waived
// where the surrounding machinery guarantees the lifecycle.
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
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
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
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			continue
		}
		w := &walker{
			pass: pass, v: obj, pool: pool,
			acquire: as, borrows: make(map[types.Object]bool),
		}
		w.walk(body)
	}
}

// acquirePool returns the pool name if call is an annotated acquire.
func acquirePool(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	return pass.Directive(astq.CalledFunc(pass.TypesInfo, call), acquire)
}

// ---- per-variable lifecycle walk ----

// counts is the {0, 1, 2+} possible-release-total lattice.
type counts uint8

const (
	zero counts = 1 << iota
	one
	many
)

func (c counts) add(d counts) counts {
	var out counts
	vals := []struct {
		bit counts
		n   int
	}{{zero, 0}, {one, 1}, {many, 2}}
	for _, a := range vals {
		if c&a.bit == 0 {
			continue
		}
		for _, b := range vals {
			if d&b.bit == 0 {
				continue
			}
			switch a.n + b.n {
			case 0:
				out |= zero
			case 1:
				out |= one
			default:
				out |= many
			}
		}
	}
	return out
}

// state is the per-path lattice: explicit releases so far and releases
// pending in registered defers.
type state struct {
	cnt counts
	def counts
}

func (s state) merge(t state) state { return state{s.cnt | t.cnt, s.def | t.def} }

// total is the release count a path exiting now would end with.
func (s state) total() counts { return s.cnt.add(s.def) }

type walker struct {
	pass    *analysis.Pass
	v       types.Object
	pool    string
	acquire *ast.AssignStmt
	borrows map[types.Object]bool

	active   bool
	lost     bool // v reassigned; tracking abandoned
	done     bool // scope ended
	reported bool // one finding per acquire; follow-on noise suppressed
}

// walk runs the lifecycle analysis over the enclosing body. The
// end-of-scope check fires in seq when the statement list that
// contains the acquire ends (whether that is the function body, an if
// branch, or a loop body).
func (w *walker) walk(body *ast.BlockStmt) {
	w.seq(body.List, state{cnt: zero, def: zero})
}

func (w *walker) name() string { return w.v.Name() }

func (w *walker) reportf(pos token.Pos, format string, args ...interface{}) {
	if w.reported || w.pass.Suppressed(pos) {
		return
	}
	w.pass.Reportf(pos, format, args...)
	w.reported = true
}

// seq threads the state through a statement list. Activation: when the
// acquire statement is an element of this list, tracking starts after
// it and the end-of-scope check runs when the list ends (the variable
// goes out of scope with it).
func (w *walker) seq(stmts []ast.Stmt, in state) (fall state, term bool) {
	cur := in
	owner := false // acquire statement is directly in this list
	for _, s := range stmts {
		if s == w.acquire {
			w.active = true
			owner = true
			cur = state{cnt: zero, def: zero}
			continue
		}
		if w.lost || w.done {
			return cur, false
		}
		next, terminated := w.stmt(s, cur)
		if terminated {
			if owner {
				w.endScope()
			}
			return state{}, true
		}
		cur = next
	}
	if owner && w.active && !w.lost {
		w.checkExit(w.acquire.Pos(), cur, "scope ends")
		w.endScope()
	}
	return cur, false
}

func (w *walker) endScope() {
	w.active = false
	w.done = true
}

// checkExit validates a path's final release total.
func (w *walker) checkExit(pos token.Pos, s state, how string) {
	t := s.total()
	if t&zero != 0 {
		w.reportf(w.acquire.Pos(), "pooled %s (pool %s) acquired here may not be released on the path where %s", w.name(), w.pool, how)
	} else if t&many != 0 {
		w.reportf(pos, "pooled %s (pool %s) may be released more than once on the path where %s", w.name(), w.pool, how)
	}
}

func (w *walker) stmt(s ast.Stmt, in state) (fall state, term bool) {
	if !w.active {
		// Before activation (or after scope end) only structure is
		// followed, looking for the acquire statement in nested lists.
		switch s := s.(type) {
		case *ast.BlockStmt:
			return w.seq(s.List, in)
		case *ast.IfStmt:
			w.seq(s.Body.List, in)
			if s.Else != nil {
				w.stmt(s.Else, in)
			}
			return in, false
		case *ast.SwitchStmt:
			return w.quietClauses(s.Body, in)
		case *ast.TypeSwitchStmt:
			return w.quietClauses(s.Body, in)
		case *ast.SelectStmt:
			return w.quietClauses(s.Body, in)
		case *ast.ForStmt:
			w.seq(s.Body.List, in)
			return in, false
		case *ast.RangeStmt:
			w.seq(s.Body.List, in)
			return in, false
		case *ast.LabeledStmt:
			return w.stmt(s.Stmt, in)
		}
		return in, false
	}

	switch s := s.(type) {
	case *ast.ReturnStmt:
		w.returnStmt(s, in)
		return state{}, true
	case *ast.BranchStmt:
		return state{}, true
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, in)
	case *ast.BlockStmt:
		return w.seq(s.List, in)
	case *ast.IfStmt:
		base := in
		if s.Init != nil {
			base, _ = w.stmt(s.Init, base)
		}
		base = w.exprStep(s.Cond, base)
		tFall, tTerm := w.seq(s.Body.List, base)
		eFall, eTerm := base, false
		if s.Else != nil {
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				eFall, eTerm = w.seq(e.List, base)
			case *ast.IfStmt:
				eFall, eTerm = w.stmt(e, base)
			}
		}
		if tTerm && eTerm {
			return state{}, true
		}
		if tTerm {
			return eFall, false
		}
		if eTerm {
			return tFall, false
		}
		return tFall.merge(eFall), false
	case *ast.SwitchStmt:
		return w.clauses(s.Body, s.Init, s.Tag, in)
	case *ast.TypeSwitchStmt:
		return w.clauses(s.Body, s.Init, nil, in)
	case *ast.SelectStmt:
		return w.clauses(s.Body, nil, nil, in)
	case *ast.ForStmt:
		return w.loop(s.Body, s.Pos(), in)
	case *ast.RangeStmt:
		return w.loop(s.Body, s.Pos(), in)
	case *ast.DeferStmt:
		return w.deferStmt(s, in), false
	case *ast.GoStmt:
		if mentionsObj(w.pass.TypesInfo, s.Call, w.v) {
			w.reportf(s.Pos(), "pooled %s (pool %s) escapes into a goroutine; lifecycle cannot be verified", w.name(), w.pool)
		}
		return in, false
	case *ast.AssignStmt:
		return w.assign(s, in), false
	case *ast.DeclStmt:
		out := in
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						out = w.exprStep(v, out)
					}
				}
			}
		}
		return out, false
	case *ast.ExprStmt:
		return w.exprStep(s.X, in), false
	case *ast.IncDecStmt:
		return w.exprStep(s.X, in), false
	case *ast.SendStmt:
		if mentionsObj(w.pass.TypesInfo, s.Value, w.v) {
			w.reportf(s.Pos(), "pooled %s (pool %s) sent on a channel; retention past handoff needs a fractos:pool-ok waiver", w.name(), w.pool)
		}
		return w.exprStep(s.Chan, w.exprStep(s.Value, in)), false
	}
	return in, false
}

// quietClauses follows structure pre-activation.
func (w *walker) quietClauses(body *ast.BlockStmt, in state) (state, bool) {
	for _, cc := range body.List {
		switch cc := cc.(type) {
		case *ast.CaseClause:
			w.seq(cc.Body, in)
		case *ast.CommClause:
			w.seq(cc.Body, in)
		}
	}
	return in, false
}

// clauses merges all case bodies; without a default the fall-past path
// keeps the incoming state.
func (w *walker) clauses(body *ast.BlockStmt, init ast.Stmt, tag ast.Expr, in state) (state, bool) {
	base := in
	if init != nil {
		base, _ = w.stmt(init, base)
	}
	if tag != nil {
		base = w.exprStep(tag, base)
	}
	if len(body.List) == 0 {
		return base, false
	}
	var fall state
	merged := false
	hasDefault := false
	for _, cc := range body.List {
		var stmts []ast.Stmt
		switch cc := cc.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			stmts = cc.Body
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			}
			stmts = cc.Body
		default:
			continue
		}
		f, t := w.seq(stmts, base)
		if !t {
			if merged {
				fall = fall.merge(f)
			} else {
				fall, merged = f, true
			}
		}
	}
	if !hasDefault {
		if merged {
			fall = fall.merge(base)
		} else {
			fall, merged = base, true
		}
	}
	if !merged {
		return state{}, true
	}
	return fall, false
}

// loop checks that iterations cannot accumulate releases: a body that
// releases and falls through to the next iteration releases again.
func (w *walker) loop(body *ast.BlockStmt, pos token.Pos, in state) (state, bool) {
	fall, term := w.seq(body.List, in)
	if !w.active || w.done {
		// The acquire lives inside the body; each iteration was its
		// own scope and the walk is finished.
		return in, false
	}
	if !term && fall.cnt != in.cnt {
		w.reportf(pos, "pooled %s (pool %s) is released inside this loop and may be released again on the next iteration", w.name(), w.pool)
	}
	if term {
		return in, false
	}
	return in.merge(fall), false
}

// deferStmt credits deferred releases; a deferred closure that touches
// the variable without releasing it is a capture finding.
func (w *walker) deferStmt(s *ast.DeferStmt, in state) state {
	if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		n := w.countReleasesIn(lit.Body)
		if n > 0 {
			out := in
			for i := 0; i < n; i++ {
				out.def = out.def.add(one)
			}
			return out
		}
		if mentionsObj(w.pass.TypesInfo, lit, w.v) {
			w.reportf(s.Pos(), "pooled %s (pool %s) captured by deferred closure that does not release it", w.name(), w.pool)
		}
		return in
	}
	if w.isReleaseOf(s.Call) {
		out := in
		out.def = out.def.add(one)
		return out
	}
	if mentionsObj(w.pass.TypesInfo, s.Call, w.v) {
		w.reportf(s.Pos(), "pooled %s (pool %s) used in defer without releasing; lifecycle cannot be verified", w.name(), w.pool)
	}
	return in
}

// countReleasesIn counts unconditional release calls in a block
// (deferred-closure bodies are expected to be straight-line).
func (w *walker) countReleasesIn(body *ast.BlockStmt) int {
	n := 0
	ast.Inspect(body, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok && w.isReleaseOf(call) {
			n++
		}
		return true
	})
	return n
}

// assign handles stores: reassignment of v ends tracking, borrows are
// registered, stores of v into non-local destinations are retention.
func (w *walker) assign(s *ast.AssignStmt, in state) state {
	out := in
	for _, rhs := range s.Rhs {
		out = w.exprStep(rhs, out)
	}
	// Reassignment of the tracked variable.
	for _, lhs := range s.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && objOf(w.pass.TypesInfo, id) == w.v {
			w.lost = true
			return out
		}
	}
	// Borrow registration: x := v.Method() / x := v.Field (single
	// assign) where x has reference semantics, tracked so later
	// use-after-release through the borrow is caught. Value copies
	// (ints, structs) are safe and not tracked.
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
		if id, ok := s.Lhs[0].(*ast.Ident); ok {
			if w.isBorrowExpr(s.Rhs[0]) {
				if obj := objOf(w.pass.TypesInfo, id); obj != nil && isRefType(obj.Type()) {
					w.borrows[obj] = true
				}
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
			if obj := objOf(w.pass.TypesInfo, lhs); obj != nil && obj != w.v &&
				obj.Parent() == w.pass.Pkg.Scope() {
				retains = true
			}
		}
		if !retains {
			continue
		}
		var rhs ast.Expr
		if len(s.Rhs) == len(s.Lhs) {
			rhs = s.Rhs[i]
		} else if len(s.Rhs) == 1 {
			rhs = s.Rhs[0]
		}
		if rhs != nil && mentionsObj(w.pass.TypesInfo, rhs, w.v) {
			w.reportf(s.Pos(), "pooled %s (pool %s) stored outside the local frame; retention past handoff needs a fractos:pool-ok waiver", w.name(), w.pool)
		}
	}
	return out
}

// isRefType reports whether values of t alias underlying storage.
func isRefType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// returnStmt handles ownership transfer and exit checking.
func (w *walker) returnStmt(s *ast.ReturnStmt, in state) {
	transfers := false
	for _, res := range s.Results {
		if id, ok := ast.Unparen(res).(*ast.Ident); ok && objOf(w.pass.TypesInfo, id) == w.v {
			transfers = true
		} else {
			in = w.exprStep(res, in)
		}
	}
	if transfers {
		if in.cnt&(one|many) != 0 {
			w.reportf(s.Pos(), "pooled %s (pool %s) returned after it may already have been released", w.name(), w.pool)
		} else if in.def&(one|many) != 0 {
			w.reportf(s.Pos(), "pooled %s (pool %s) returned while a deferred call releases it", w.name(), w.pool)
		}
		return
	}
	w.checkExit(s.Pos(), in, "this return is taken")
}

// exprStep advances the state across one expression: releases add to
// the count (reporting definite double releases), other uses after a
// definite release are reported, closures capturing the value are
// retention.
func (w *walker) exprStep(e ast.Expr, in state) state {
	if e == nil {
		return in
	}
	out := in
	var uses []token.Pos
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if mentionsObj(w.pass.TypesInfo, n, w.v) {
				w.reportf(n.Pos(), "pooled %s (pool %s) captured by a function literal; the closure may outlive the release point (fractos:pool-ok if the scheduler guarantees otherwise)", w.name(), w.pool)
			}
			return false
		case *ast.CallExpr:
			if w.isReleaseOf(n) {
				if out.cnt&zero == 0 { // definitely already released
					w.reportf(n.Pos(), "pooled %s (pool %s) released again here", w.name(), w.pool)
				}
				out.cnt = out.cnt.add(one)
				return false
			}
			return true
		case *ast.Ident:
			obj := objOf(w.pass.TypesInfo, n)
			if obj == w.v || (obj != nil && w.borrows[obj]) {
				uses = append(uses, n.Pos())
			}
		}
		return true
	})
	if len(uses) > 0 && in.cnt != 0 && in.cnt&zero == 0 {
		w.reportf(uses[0], "use of pooled %s (pool %s) after it was released", w.name(), w.pool)
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
	if op == nil {
		return false
	}
	id, ok := ast.Unparen(op).(*ast.Ident)
	return ok && objOf(w.pass.TypesInfo, id) == w.v
}

// isBorrowExpr reports whether e reads directly off the tracked
// variable: v.Method(...) or v.Field.
func (w *walker) isBorrowExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				return objOf(w.pass.TypesInfo, id) == w.v
			}
		}
	case *ast.SelectorExpr:
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			return objOf(w.pass.TypesInfo, id) == w.v
		}
	}
	return false
}

// boundOperand returns the expression a release call releases: the
// first argument, or the receiver for parameterless methods.
func boundOperand(callee *types.Func, call *ast.CallExpr) ast.Expr {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if sig.Params().Len() >= 1 && len(call.Args) >= 1 {
		return call.Args[0]
	}
	if sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return sel.X
		}
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
