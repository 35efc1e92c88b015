// Package statuscheck checks the completion protocol of the
// Controller's syscall dispatch: every syscall handler must complete
// the Process's request exactly once on every control-flow path. Zero
// completions hang the issuing Process forever; two corrupt its token
// table.
//
// A handler is a Controller method handle* whose message parameter
// carries a completion Token, or any function whose doc comment carries
// //fractos:owes-completion (finishSyscall, the continuation of every
// forwarded syscall). The analysis is path-sensitive over
// if/switch/return and reads the protocol off directives, not names:
//
//   - a call to a function marked //fractos:completes N counts as N
//     completions (0 or 1) whatever its body does. complete is 1;
//     forward and startCopy hand the duty to a record whose machinery
//     discharges it exactly once, so they are 1 too; the bare
//     inter-Controller call owes no Process a completion and is 0;
//   - a function literal handed to a function marked
//     //fractos:runs-once (Kernel.Spawn, Kernel.After) runs exactly once,
//     so its body counts toward the handler's total;
//   - any other same-package function is summarized and counted.
//
// Only internal/core is checked. Waiver: `fractos:completion-ok
// <reason>` on a handler, a loop or a defer.
package statuscheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"fractos/tools/analyzers/analysis"
	"fractos/tools/analyzers/astq"
)

// Analyzer is the statuscheck analysis.
var Analyzer = &analysis.Analyzer{
	Name:       "statuscheck",
	Doc:        "syscall handlers must complete exactly once per path",
	Directives: []string{completes, runsOnce, owesCompletion},
	Waiver:     "completion-ok",
	Run:        run,
}

const (
	completes      = "completes"
	runsOnce       = "runs-once"
	owesCompletion = "owes-completion"
)

func run(pass *analysis.Pass) (interface{}, error) {
	if strings.Contains(pass.Pkg.Path(), "internal/core") {
		checkCompletions(pass)
	}
	return nil, nil
}

// ---- Rule 2: complete() exactly once per dispatch path ----

// counts is a small lattice: the set of possible completion totals of
// a path, saturated at "2 or more".
type counts uint8

const (
	zero counts = 1 << iota
	one
	many
)

// add is the pointwise sum of two count sets.
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

func (c counts) String() string {
	var parts []string
	if c&zero != 0 {
		parts = append(parts, "0")
	}
	if c&one != 0 {
		parts = append(parts, "1")
	}
	if c&many != 0 {
		parts = append(parts, "2+")
	}
	if len(parts) == 0 {
		return "?"
	}
	return strings.Join(parts, " or ")
}

type checker struct {
	pass      *analysis.Pass
	report    bool // report per-return violations (handler top level)
	reported  bool
	depth     int // >0 inside a function literal
	ends      counts
	summaries map[*types.Func]counts
	inFlight  map[*types.Func]bool
	decls     map[*types.Func]*ast.FuncDecl
}

func checkCompletions(pass *analysis.Pass) {
	c := &checker{
		pass:      pass,
		summaries: make(map[*types.Func]counts),
		inFlight:  make(map[*types.Func]bool),
		decls:     make(map[*types.Func]*ast.FuncDecl),
	}
	var handlers []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			c.decls[obj] = fd
			if pass.Marked(obj, owesCompletion) || astq.ReceiverTypeName(fd) == "Controller" &&
				strings.HasPrefix(fd.Name.Name, "handle") && handlerHasToken(pass, fd) {
				handlers = append(handlers, fd)
			}
		}
	}
	for _, fd := range handlers {
		if pass.Suppressed(fd.Pos()) {
			continue
		}
		c.report = true
		c.reported = false
		c.ends = 0
		fall, term := c.seq(fd.Body.List, zero)
		all := c.ends
		if !term {
			all |= fall
			if c.report && fall != one && !c.reported {
				c.pass.Reportf(fd.Pos(),
					"syscall handler %s can fall off the end having completed %s times (must be exactly 1)",
					fd.Name.Name, fall)
				c.reported = true
			}
		}
		if all != one && !c.reported {
			c.pass.Reportf(fd.Pos(),
				"syscall handler %s completes %s times on some path; every dispatch path must call complete exactly once",
				fd.Name.Name, all)
		}
	}
}

// handlerHasToken reports whether some parameter of the handler is a
// pointer to a struct carrying a Token field — the marker of a
// syscall that owes the Process a completion.
func handlerHasToken(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	for _, param := range fd.Type.Params.List {
		tv, ok := pass.TypesInfo.Types[param.Type]
		if !ok {
			continue
		}
		ptr, ok := tv.Type.(*types.Pointer)
		if !ok {
			continue
		}
		st, ok := ptr.Elem().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == "Token" {
				return true
			}
		}
	}
	return false
}

// seq threads completion counts through a statement list. It returns
// the possible counts of paths falling off the end, and whether no
// path falls through (every path returned or branched away).
// Terminated-path counts accumulate into c.ends.
func (c *checker) seq(stmts []ast.Stmt, in counts) (fall counts, term bool) {
	cur := in
	for _, s := range stmts {
		next, terminated := c.stmt(s, cur)
		if terminated {
			return 0, true
		}
		cur = next
	}
	return cur, false
}

// stmt advances counts across one statement; term means every path
// through it terminates (return/break/continue).
func (c *checker) stmt(s ast.Stmt, in counts) (fall counts, term bool) {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		c.atEnd(s.Pos(), in)
		return 0, true
	case *ast.BranchStmt:
		// break/continue/goto leave this statement list; their counts
		// are not tracked further (loop accumulation is checked
		// separately).
		return 0, true
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, in)
	case *ast.ExprStmt:
		return in.add(c.exprCounts(s.X)), false
	case *ast.AssignStmt:
		out := in
		for _, rhs := range s.Rhs {
			out = out.add(c.exprCounts(rhs))
		}
		return out, false
	case *ast.DeclStmt:
		out := in
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						out = out.add(c.exprCounts(v))
					}
				}
			}
		}
		return out, false
	case *ast.IfStmt:
		base := in
		if s.Init != nil {
			base, _ = c.stmt(s.Init, base)
		}
		base = base.add(c.exprCounts(s.Cond))
		tFall, tTerm := c.seq(s.Body.List, base)
		eFall, eTerm := base, false
		if s.Else != nil {
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				eFall, eTerm = c.seq(e.List, base)
			case *ast.IfStmt:
				eFall, eTerm = c.stmt(e, base)
			}
		}
		if tTerm && eTerm {
			return 0, true
		}
		if tTerm {
			return eFall, false
		}
		if eTerm {
			return tFall, false
		}
		return tFall | eFall, false
	case *ast.SwitchStmt:
		return c.switchClauses(s.Body, s.Init, in)
	case *ast.TypeSwitchStmt:
		return c.switchClauses(s.Body, s.Init, in)
	case *ast.BlockStmt:
		return c.seq(s.List, in)
	case *ast.ForStmt:
		c.loopCheck(s.Body, in)
		return in, false
	case *ast.RangeStmt:
		c.loopCheck(s.Body, in)
		return in, false
	case *ast.DeferStmt:
		if c.callCounts(s.Call) != zero && c.report &&
			!c.pass.Suppressed(s.Pos()) {
			c.pass.Reportf(s.Pos(), "completion inside defer is not analyzable; complete on the explicit paths instead")
			c.reported = true
		}
		return in, false
	}
	return in, false
}

// switchClauses merges all case bodies; without a default the
// fall-past path keeps the incoming counts.
func (c *checker) switchClauses(body *ast.BlockStmt, init ast.Stmt, in counts) (counts, bool) {
	base := in
	if init != nil {
		base, _ = c.stmt(init, base)
	}
	if len(body.List) == 0 {
		return base, false
	}
	var fall counts
	hasDefault := false
	allTerm := true
	for _, cc := range body.List {
		clause, ok := cc.(*ast.CaseClause)
		if !ok {
			continue
		}
		if clause.List == nil {
			hasDefault = true
		}
		f, t := c.seq(clause.Body, base)
		if !t {
			fall |= f
			allTerm = false
		}
	}
	if !hasDefault {
		fall |= base
		allTerm = false
	}
	if allTerm {
		return 0, true
	}
	return fall, false
}

// loopCheck verifies that a loop body cannot accumulate completions
// across iterations: a body path that completes must return, not fall
// through to the next iteration.
func (c *checker) loopCheck(body *ast.BlockStmt, in counts) {
	saved := c.report
	c.report = false // paths ending inside the loop are re-examined below
	fall, term := c.seq(body.List, in)
	c.report = saved
	if !term && fall != in && c.report &&
		!c.pass.Suppressed(body.Pos()) {
		c.pass.Reportf(body.Pos(), "completion inside a loop may run zero or many times; complete outside the loop or return immediately after completing")
		c.reported = true
	}
}

// atEnd records a terminated path's count and reports it at handler
// top level when it is not exactly one.
func (c *checker) atEnd(pos token.Pos, cur counts) {
	c.ends |= cur
	if c.report && c.depth == 0 && cur != one && !c.reported {
		c.pass.Reportf(pos,
			"this return path has completed %s times (must be exactly 1)", cur)
		c.reported = true
	}
}

// exprCounts returns the completions contributed by evaluating e.
func (c *checker) exprCounts(e ast.Expr) counts {
	out := zero
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A bare literal not handed to a continuation primitive is
			// not executed here.
			return false
		case *ast.CallExpr:
			out = out.add(c.callCounts(n))
			return false
		}
		return true
	})
	return out
}

// callCounts returns the completion contribution of one call.
func (c *checker) callCounts(call *ast.CallExpr) counts {
	fn := astq.CalledFunc(c.pass.TypesInfo, call)
	if n, ok := c.pass.Directive(fn, completes); ok {
		if n == "0" {
			return zero
		}
		return one
	}
	out := zero
	if c.pass.Marked(fn, runsOnce) {
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				out = out.add(c.funcLitCounts(lit))
			}
		}
		return out
	}
	if fn != nil && fn.Pkg() == c.pass.Pkg {
		return c.summary(fn)
	}
	for _, arg := range call.Args {
		out = out.add(c.exprCounts(arg))
	}
	return out
}

// funcLitCounts analyzes a literal that will be invoked exactly once,
// returning the set of its possible completion totals.
func (c *checker) funcLitCounts(lit *ast.FuncLit) counts {
	savedEnds, savedDepth := c.ends, c.depth
	c.ends, c.depth = 0, c.depth+1
	fall, term := c.seq(lit.Body.List, zero)
	all := c.ends
	if !term {
		all |= fall
	}
	c.ends, c.depth = savedEnds, savedDepth
	if all == 0 {
		all = zero
	}
	return all
}

// summary computes (memoized) the possible completion totals of a
// declared same-package function. Recursion is cut at zero.
func (c *checker) summary(fn *types.Func) counts {
	if s, ok := c.summaries[fn]; ok {
		return s
	}
	if c.inFlight[fn] {
		return zero
	}
	fd, ok := c.decls[fn]
	if !ok || fd.Body == nil {
		return zero
	}
	c.inFlight[fn] = true
	sub := &checker{
		pass:      c.pass,
		report:    false,
		summaries: c.summaries,
		inFlight:  c.inFlight,
		decls:     c.decls,
	}
	fall, term := sub.seq(fd.Body.List, zero)
	s := sub.ends
	if !term {
		s |= fall
	}
	if s == 0 {
		s = zero
	}
	delete(c.inFlight, fn)
	c.summaries[fn] = s
	return s
}
