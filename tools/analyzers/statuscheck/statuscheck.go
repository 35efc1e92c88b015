// Package statuscheck checks the completion protocol of the
// Controller's syscall dispatch: every syscall handler must complete
// the Process's request exactly once on every control-flow path. Zero
// completions hang the issuing Process forever; two corrupt its token
// table.
//
// A handler is a Controller method handle* whose message parameter
// carries a completion Token, or any function whose doc comment carries
// //fractos:owes-completion (finishSyscall, the continuation of every
// forwarded syscall). The paths are those of the shared walker
// (tools/analyzers/flow); this package says what counts as a
// completion, and reads that off directives, not names:
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
// <reason>` on a handler or on the reported line (a return, a loop or
// a defer).
package statuscheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"fractos/tools/analyzers/analysis"
	"fractos/tools/analyzers/astq"
	"fractos/tools/analyzers/flow"
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

// checker is the flow.Rules of completions. Only the handler's own
// body reports; the bodies of loops, runs-once literals and summarized
// functions are walked for their counts.
type checker struct {
	pass      *analysis.Pass
	report    bool // report findings (off inside loop bodies and summaries)
	reported  bool // one finding per handler
	depth     int  // >0 inside a runs-once literal: its returns end the literal, not the handler
	ends      flow.Counts
	summaries map[*types.Func]flow.Counts
	inFlight  map[*types.Func]bool
	decls     map[*types.Func]*ast.FuncDecl
}

func checkCompletions(pass *analysis.Pass) {
	c := &checker{
		pass:      pass,
		summaries: make(map[*types.Func]flow.Counts),
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
		c.report, c.reported = true, false
		fall, all := c.walk(fd.Body)
		if fall != 0 && fall != flow.One {
			c.reportf(fd.Pos(),
				"syscall handler %s can fall off the end having completed %s times (must be exactly 1)",
				fd.Name.Name, fall)
		}
		if all != flow.One {
			c.reportf(fd.Pos(),
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

// walk returns the completion totals of the paths falling off the end
// of body (empty if none does) and of all its paths.
func (c *checker) walk(body *ast.BlockStmt) (fall, all flow.Counts) {
	saved := c.ends
	c.ends = 0
	st, _ := flow.Walk(c, body.List, flow.Start) // zero when no path falls off
	fall = st.Done
	all, c.ends = c.ends|fall, saved
	if all == 0 { // every path branched away
		all = flow.Zero
	}
	return fall, all
}

func (c *checker) reportf(pos token.Pos, format string, args ...interface{}) {
	if !c.report || c.reported || c.pass.Suppressed(pos) {
		return
	}
	c.pass.Reportf(pos, format, args...)
	c.reported = true
}

// Simple counts the completions a statement makes. A defer's are not
// counted: they happen on whichever path exits.
func (c *checker) Simple(s ast.Stmt, in flow.State) flow.State {
	if d, ok := s.(*ast.DeferStmt); ok {
		if c.callCounts(d.Call) != flow.Zero {
			c.reportf(d.Pos(), "completion inside defer is not analyzable; complete on the explicit paths instead")
		}
		return in
	}
	in.Done = in.Done.Add(c.count(s))
	return in
}

func (c *checker) Expr(e ast.Expr, in flow.State) flow.State {
	in.Done = in.Done.Add(c.count(e))
	return in
}

// Return records the path's total and, at the handler's top level,
// reports it when it is not exactly one.
func (c *checker) Return(r *ast.ReturnStmt, in flow.State) {
	c.ends |= in.Done
	if c.depth == 0 && in.Done != flow.One {
		c.reportf(r.Pos(), "this return path has completed %s times (must be exactly 1)", in.Done)
	}
}

// Loop checks that a loop body cannot accumulate completions across
// iterations: a body path that completes must return, not fall through
// to the next iteration.
func (c *checker) Loop(_ ast.Stmt, body *ast.BlockStmt, in flow.State) flow.State {
	saved := c.report
	c.report = false // the handler's "some path" check sees returns inside the loop
	fall, term := flow.Walk(c, body.List, in)
	c.report = saved
	if !term && fall != in {
		c.reportf(body.Pos(), "completion inside a loop may run zero or many times; complete outside the loop or return immediately after completing")
	}
	return in
}

// count returns the completions made by evaluating n.
func (c *checker) count(n ast.Node) flow.Counts {
	out := flow.Zero
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A bare literal not handed to a continuation primitive is
			// not executed here.
			return false
		case *ast.CallExpr:
			out = out.Add(c.callCounts(n))
			return false
		}
		return true
	})
	return out
}

// callCounts returns the completion contribution of one call.
func (c *checker) callCounts(call *ast.CallExpr) flow.Counts {
	fn := astq.CalledFunc(c.pass.TypesInfo, call)
	if n, ok := c.pass.Directive(fn, completes); ok {
		if n == "0" {
			return flow.Zero
		}
		return flow.One
	}
	out := flow.Zero
	if c.pass.Marked(fn, runsOnce) {
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				c.depth++
				_, all := c.walk(lit.Body)
				c.depth--
				out = out.Add(all)
			}
		}
		return out
	}
	if fn != nil && fn.Pkg() == c.pass.Pkg {
		return c.summary(fn)
	}
	for _, arg := range call.Args {
		out = out.Add(c.count(arg))
	}
	return out
}

// summary computes (memoized) the possible completion totals of a
// declared same-package function. Recursion is cut at zero.
func (c *checker) summary(fn *types.Func) flow.Counts {
	if s, ok := c.summaries[fn]; ok {
		return s
	}
	fd, ok := c.decls[fn]
	if !ok || c.inFlight[fn] {
		return flow.Zero
	}
	c.inFlight[fn] = true
	saved := c.report
	c.report = false
	_, s := c.walk(fd.Body)
	c.report = saved
	delete(c.inFlight, fn)
	c.summaries[fn] = s
	return s
}
