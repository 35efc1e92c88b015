// Package statuscheck is an errcheck for wire.Status plus a
// completion-protocol check for the Controller's syscall dispatch:
//
// Rule 1 (everywhere): a call whose results include a wire.Status
// must not discard it. Dropping a Status silently swallows revocation
// (StatusRevoked), stale-epoch rejection (StatusStale), and
// permission failures (StatusPerm) — precisely the signals FractOS's
// failure handling is built on. Statuses may not be dropped as bare
// expression statements nor assigned to the blank identifier; a
// deliberate drop needs a `fractos:status-ok <reason>` comment.
//
// Rule 2 (internal/core): every syscall handler (Controller method
// handle* whose message parameter carries a completion Token) must
// call complete exactly once on every control-flow path. Zero
// completions hang the issuing Process forever; two corrupt its
// token table. The analysis is path-sensitive over if/switch/return
// and follows the package's continuation idioms. A handler whose
// operation outlives it passes the completion duty to a record, through
// a function whose doc comment carries //fractos:completion-handoff:
// calling it counts as the handler's one completion, and the record's
// machinery discharges the duty exactly once. forward parks a
// pending-call record whose continuation, finishSyscall, runs exactly
// once per record (reply, send failure, or abort) and is itself held to
// the exactly-once rule; startCopy hands a memory_copy to its copyOp,
// whose finish completes it. A function literal handed to Spawn or
// After runs exactly once, so its body — and same-package functions it
// calls — counts toward the handler's completion total.
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
	Name: "statuscheck",
	Doc:  "wire.Status results must be checked; syscall handlers must complete exactly once per path",
	Run:  run,
}

const suppression = "fractos:status-ok"

// handoff marks, in its doc comment, a function that takes over its
// caller's duty to complete the syscall.
const handoff = "fractos:completion-handoff"

func run(pass *analysis.Pass) (interface{}, error) {
	checkDrops(pass)
	if strings.Contains(pass.Pkg.Path(), "internal/core") {
		checkCompletions(pass)
	}
	return nil, nil
}

// ---- Rule 1: dropped statuses ----

func checkDrops(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					reportDroppedStatus(pass, call, -1)
				}
			case *ast.AssignStmt:
				checkBlankAssign(pass, n)
			case *ast.GoStmt:
				reportDroppedStatus(pass, n.Call, -1)
			case *ast.DeferStmt:
				reportDroppedStatus(pass, n.Call, -1)
			}
			return true
		})
	}
}

// reportDroppedStatus reports if the call's result (or, when idx >= 0,
// only the idx-th tuple component) is a wire.Status.
func reportDroppedStatus(pass *analysis.Pass, call *ast.CallExpr, idx int) {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok || tv.Type == nil {
		return
	}
	found := false
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if (idx < 0 || idx == i) && astq.IsStatusType(t.At(i).Type()) {
				found = true
			}
		}
	default:
		if idx <= 0 && astq.IsStatusType(tv.Type) {
			found = true
		}
	}
	if !found || pass.Suppressed(call.Pos(), suppression) {
		return
	}
	name := astq.CalleeName(call)
	if name == "" {
		name = "call"
	}
	pass.Reportf(call.Pos(), "result of %s returning wire.Status is dropped; statuses carry revocation/permission failures and must be checked", name)
}

// checkBlankAssign flags wire.Status results assigned to the blank
// identifier.
func checkBlankAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" {
			continue
		}
		if len(as.Lhs) == 1 {
			reportDroppedStatus(pass, call, -1)
		} else {
			reportDroppedStatus(pass, call, i)
		}
	}
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
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				c.decls[obj] = fd
			}
			if astq.ReceiverTypeName(fd) != "Controller" {
				continue
			}
			if fd.Name.Name == "finishSyscall" ||
				strings.HasPrefix(fd.Name.Name, "handle") && handlerHasToken(pass, fd) {
				handlers = append(handlers, fd)
			}
		}
	}
	for _, fd := range handlers {
		if pass.Suppressed(fd.Pos(), suppression) {
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
			!c.pass.Suppressed(s.Pos(), suppression) {
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
		!c.pass.Suppressed(body.Pos(), suppression) {
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
	switch astq.CalleeName(call) {
	case "complete":
		return one
	case "call":
		// The bare pending-call machinery serves internal operations
		// (cleanup broadcasts, lease revocations, memory_copy's
		// validation round) that owe no Process a completion; a syscall
		// enters it only through forward.
		return zero
	case "Spawn", "After":
		// Continuation primitives: a func-literal argument runs
		// exactly once, as a scheduled task.
		out := zero
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				out = out.add(c.funcLitCounts(lit))
			}
		}
		return out
	}
	if fn := astq.CalledFunc(c.pass.TypesInfo, call); fn != nil && fn.Pkg() == c.pass.Pkg {
		if takesOver(c.decls[fn]) {
			// The completion duty moves to a record (a pending call, a
			// copy op) whose machinery discharges it.
			return one
		}
		return c.summary(fn)
	}
	out := zero
	for _, arg := range call.Args {
		out = out.add(c.exprCounts(arg))
	}
	return out
}

// takesOver reports whether fd's doc comment carries the handoff
// directive (as a comment line of its own, not prose mentioning it).
func takesOver(fd *ast.FuncDecl) bool {
	if fd == nil || fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimPrefix(c.Text, "//"), handoff) {
			return true
		}
	}
	return false
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
