// Package flow is the path-sensitive statement walker behind the
// exactly-once analyzer, statuscheck. It threads a path
// State — how many times a duty has been discharged so far, and how
// many times registered defers will discharge it on exit — through a
// function body's statements, splitting at if/else, switch, type
// switch and select clauses and joining their fall-through paths.
// Counts are sets over the lattice {0, 1, 2+}, so a joined path may
// read "0 or 1".
//
// Everything that does not branch is the client's: a Rules value says
// what a simple statement, an evaluated condition, a return and a loop
// mean to it. Limitations, by design: break, continue, goto and
// fallthrough end a path with no exit check (a duty left undischarged
// through them is not reported), and neither the assignment of a type
// switch nor the communication heads of select clauses are handed to
// Rules.
package flow

import (
	"go/ast"
	"strings"
)

// Counts is the set of totals a path may have reached: bit i stands
// for the total i, and bit 2 for "2 or more". The empty set belongs to
// no path.
type Counts uint8

const (
	Zero Counts = 1 << iota
	One
	Many
)

// Add is the pointwise sum of two count sets.
func (c Counts) Add(d Counts) Counts {
	var out Counts
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if c&(1<<i) != 0 && d&(1<<j) != 0 {
				out |= 1 << min(i+j, 2)
			}
		}
	}
	return out
}

func (c Counts) String() string {
	var parts []string
	for i, s := range []string{"0", "1", "2+"} {
		if c&(1<<i) != 0 {
			parts = append(parts, s)
		}
	}
	if len(parts) == 0 {
		return "?"
	}
	return strings.Join(parts, " or ")
}

// State is one path's tally: Done counts the discharges made so far,
// Deferred the ones registered defers will make when the path exits.
type State struct {
	Done, Deferred Counts
}

// Start is the state of a path that has discharged nothing.
var Start = State{Zero, Zero}

// Total is what a path exiting now would have discharged.
func (s State) Total() Counts { return s.Done.Add(s.Deferred) }

// Join merges two paths. The zero State, which a terminated walk
// returns, is its identity.
func (s State) Join(t State) State { return State{s.Done | t.Done, s.Deferred | t.Deferred} }

// Rules is what a client analyzer decides; the walker does the rest.
type Rules interface {
	// Simple advances a path across a statement that does not branch:
	// an expression, assignment, declaration, increment, send, go or
	// defer statement, including the init statement of an if or switch.
	Simple(s ast.Stmt, in State) State
	// Expr advances a path across an if condition or a switch tag.
	Expr(e ast.Expr, in State) State
	// Return sees the state of a path that returns.
	Return(r *ast.ReturnStmt, in State)
	// Loop is handed a for or range statement and its body, and gives
	// the state after it; Walk(body.List) is the client's to call.
	Loop(loop ast.Stmt, body *ast.BlockStmt, in State) State
}

// Walk threads a path through a statement list. It returns the state
// of the paths that fall off the end, and term when none does (every
// path returned or branched away), in which case the state is zero.
func Walk(r Rules, list []ast.Stmt, in State) (fall State, term bool) {
	for _, s := range list {
		if in, term = Stmt(r, s, in); term {
			return in, true
		}
	}
	return in, false
}

// Stmt advances a path across one statement, as Walk does a list.
func Stmt(r Rules, s ast.Stmt, in State) (State, bool) {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		r.Return(s, in)
		return State{}, true
	case *ast.BranchStmt:
		return State{}, true
	case *ast.LabeledStmt:
		return Stmt(r, s.Stmt, in)
	case *ast.BlockStmt:
		return Walk(r, s.List, in)
	case *ast.IfStmt:
		in = head(r, s.Init, s.Cond, in)
		then, thenTerm := Walk(r, s.Body.List, in)
		els, elsTerm := in, false
		if s.Else != nil {
			els, elsTerm = Stmt(r, s.Else, in)
		}
		return then.Join(els), thenTerm && elsTerm
	case *ast.SwitchStmt:
		return clauses(r, s.Body, head(r, s.Init, s.Tag, in))
	case *ast.TypeSwitchStmt:
		return clauses(r, s.Body, head(r, s.Init, nil, in))
	case *ast.SelectStmt:
		return clauses(r, s.Body, in)
	case *ast.ForStmt:
		return r.Loop(s, s.Body, in), false
	case *ast.RangeStmt:
		return r.Loop(s, s.Body, in), false
	}
	return r.Simple(s, in), false
}

// head advances a path across an optional init statement and an
// optional condition or tag.
func head(r Rules, init ast.Stmt, cond ast.Expr, in State) State {
	if init != nil {
		in = r.Simple(init, in)
	}
	if cond != nil {
		in = r.Expr(cond, in)
	}
	return in
}

// clauses joins the paths through every case or comm clause; without a
// default clause, the path that takes none keeps the incoming state.
func clauses(r Rules, body *ast.BlockStmt, in State) (fall State, term bool) {
	term = true
	def := false
	for _, cc := range body.List {
		var list []ast.Stmt
		switch cc := cc.(type) {
		case *ast.CaseClause:
			def, list = def || cc.List == nil, cc.Body
		case *ast.CommClause:
			def, list = def || cc.Comm == nil, cc.Body
		}
		f, t := Walk(r, list, in)
		fall, term = fall.Join(f), term && t
	}
	if !def {
		fall, term = fall.Join(in), false
	}
	return fall, term
}
