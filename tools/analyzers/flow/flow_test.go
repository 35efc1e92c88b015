package flow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// rec is a Rules that counts calls to d() as discharges (deferred under
// defer), logs what the walker hands it, and lets loop bodies run zero
// or more times.
type rec struct{ log []string }

func discharges(n ast.Node) Counts {
	c := Zero
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "d" {
				c = c.Add(One)
			}
		}
		return true
	})
	return c
}

func (r *rec) Simple(s ast.Stmt, in State) State {
	if d, ok := s.(*ast.DeferStmt); ok {
		in.Deferred = in.Deferred.Add(discharges(d))
		return in
	}
	in.Done = in.Done.Add(discharges(s))
	return in
}

func (r *rec) Expr(e ast.Expr, in State) State {
	r.log = append(r.log, "expr")
	in.Done = in.Done.Add(discharges(e))
	return in
}

func (r *rec) Return(_ *ast.ReturnStmt, in State) {
	r.log = append(r.log, "return "+in.Total().String())
}

func (r *rec) Loop(_ ast.Stmt, body *ast.BlockStmt, in State) State {
	r.log = append(r.log, "loop")
	fall, _ := Walk(r, body.List, in)
	return in.Join(fall)
}

func parseBody(t *testing.T, body string) *ast.BlockStmt {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "", "package p\nfunc f() {\n"+body+"\n}", 0)
	if err != nil {
		t.Fatalf("%q: %v", body, err)
	}
	return f.Decls[0].(*ast.FuncDecl).Body
}

func TestCountsAdd(t *testing.T) {
	for _, c := range []struct{ a, b, want Counts }{
		{Zero, Zero, Zero},
		{Zero, One, One},
		{One, Zero, One},
		{One, One, Many},
		{Many, Zero, Many},
		{One, Many, Many},
		{Zero | One, One, One | Many},
		{Zero | One, Zero | One, Zero | One | Many},
		{Zero | Many, Zero, Zero | Many},
		{0, One, 0},
	} {
		if got := c.a.Add(c.b); got != c.want {
			t.Errorf("%v + %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if s := (Zero | One | Many).String(); s != "0 or 1 or 2+" {
		t.Errorf("String = %q", s)
	}
	if s := Counts(0).String(); s != "?" {
		t.Errorf("empty String = %q", s)
	}
}

func TestWalk(t *testing.T) {
	for _, c := range []struct {
		body string
		fall string // total of the paths falling off the end; "" if none does
		log  string
	}{
		{"d()", "1", ""},
		{"d(); d()", "2+", ""},
		{"{ d() }", "1", ""},
		{"L: d()", "1", ""},
		{"defer d(); d()", "2+", ""},
		{"defer d(); return", "", "return 1"},
		{"if c { d() }", "0 or 1", "expr"},
		{"if d(); c { return }; d()", "2+", "expr return 1"},
		{"if c { d() } else { d() }", "1", "expr"},
		{"if c { return } else if e { d() } else { d(); d() }", "1 or 2+", "expr return 0 expr"},
		{"if c { return } else { d(); return }", "", "expr return 0 return 1"},
		{"switch d() { case 1: d(); default: return }", "2+", "expr return 1"},
		{"switch { case c: d() }", "0 or 1", ""},
		{"switch { case c: return; default: return }", "", "return 0 return 0"},
		{"switch x := 1; x { }", "0", "expr"},
		{"switch { case c: d(); fallthrough; default: }", "0", ""},
		{"switch x.(type) { case int: d() }", "0 or 1", ""},
		{"switch d(); y := x.(type) { default: _ = y }", "1", ""},
		{"select { case <-ch: d(); default: }", "0 or 1", ""},
		{"select { case v := <-ch: _ = v; return }", "0", "return 0"},
		{"select { case <-ch: return; default: return }", "", "return 0 return 0"},
		{"switch { case c: break; default: d() }", "1", ""},
		{"for i := 0; i < 3; i++ { d() }", "0 or 1", "loop"},
		{"for { if c { continue }; d(); break }", "0", "loop expr"},
		{"L: for range xs { return }; d()", "1", "loop return 0"},
		{"goto L; L: d()", "", ""},
	} {
		r := &rec{}
		fall, term := Walk(r, parseBody(t, c.body).List, Start)
		got := ""
		if !term {
			got = fall.Total().String()
		} else if fall != (State{}) {
			t.Errorf("%q: terminated with state %v", c.body, fall)
		}
		if got != c.fall || strings.Join(r.log, " ") != c.log {
			t.Errorf("%q: falls %q, log %q; want %q, %q", c.body, got, r.log, c.fall, c.log)
		}
	}
}
