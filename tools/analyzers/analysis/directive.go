package analysis

import (
	"go/ast"
	"go/types"
	"strings"
	"unicode"
)

// Prefix starts every directive and waiver: "//fractos:mustuse" on a
// declaration, "// fractos:panic-ok <reason>" on a line.
const Prefix = "fractos:"

// index maps each declared function, method, interface method and
// named type of the module to the directives in its doc comment, name
// to argument.
type index map[types.Object]map[string]string

// Directive returns the argument of the named directive on obj's
// declaration — the text after the name, "" if there is none — and
// whether the declaration carries the directive at all. A directive is
// a doc-comment line that starts with the prefix, such as
// "//fractos:ordered"; prose that mentions one mid-sentence
// is not. The index behind it is built once per Module.
func (p *Pass) Directive(obj types.Object, name string) (string, bool) {
	if fn, ok := obj.(*types.Func); ok && fn != nil {
		obj = fn.Origin()
	}
	m := p.Module
	if m.directives == nil {
		m.directives = buildIndex(m)
	}
	arg, ok := m.directives[obj][name]
	return arg, ok
}

// Marked reports whether obj's declaration carries the named directive.
func (p *Pass) Marked(obj types.Object, name string) bool {
	_, ok := p.Directive(obj, name)
	return ok
}

func buildIndex(m *Module) index {
	x := index{}
	for _, mp := range m.Packages {
		add := func(id *ast.Ident, doc *ast.CommentGroup) {
			if doc == nil {
				return
			}
			obj := mp.TypesInfo.Defs[id]
			for _, c := range doc.List {
				if name, arg, ok := directive(c.Text); ok {
					if x[obj] == nil {
						x[obj] = make(map[string]string)
					}
					x[obj][name] = arg
				}
			}
		}
		for _, f := range mp.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					add(n.Name, n.Doc)
				case *ast.GenDecl:
					for _, spec := range n.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							doc := ts.Doc
							if !n.Lparen.IsValid() {
								doc = n.Doc // "// doc\ntype T ..." documents the declaration
							}
							add(ts.Name, doc)
						}
					}
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, id := range m.Names {
							add(id, m.Doc)
						}
					}
				}
				return true
			})
		}
	}
	return x
}

// directive splits a comment line that starts with the prefix into the
// directive's name and argument.
func directive(text string) (name, arg string, ok bool) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(text[2:]), Prefix)
	if !ok {
		return "", "", false
	}
	name = markerName(rest)
	return name, strings.TrimSpace(rest[len(name):]), true
}

// markerName is the directive or waiver name at the start of s.
func markerName(s string) string {
	end := strings.IndexFunc(s, func(r rune) bool {
		return r != '-' && !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	if end < 0 {
		return s
	}
	return s[:end]
}

// Directives is the check a driver runs beside suite: it reports every
// directive, and every waiver anywhere in a comment, that no analyzer
// of the suite reads. A misspelt marker would otherwise switch its
// check off without a word.
func Directives(suite []*Analyzer) *Analyzer {
	known := make(map[string]bool)
	for _, a := range suite {
		known[a.Waiver] = true
		for _, d := range a.Directives {
			known[d] = true
		}
	}
	delete(known, "")
	return &Analyzer{
		Name: "directives",
		Doc:  "every fractos: directive and waiver in the code is one an analyzer reads",
		Run: func(pass *Pass) (interface{}, error) {
			for _, f := range pass.Files {
				for _, cg := range f.Comments {
					for _, c := range cg.List {
						for _, name := range markers(c.Text) {
							if !known[name] {
								pass.Reportf(c.Pos(), "%s%s is read by no analyzer", Prefix, name)
							}
						}
					}
				}
			}
			return nil, nil
		},
	}
}

// markers returns the directive a comment line starts with, if any,
// and every waiver (a name ending in "-ok") the line mentions.
func markers(text string) []string {
	_, _, lead := directive(text)
	var out []string
	for s := text; ; lead = false {
		i := strings.Index(s, Prefix)
		if i < 0 {
			return out
		}
		s = s[i+len(Prefix):]
		if name := markerName(s); lead || strings.HasSuffix(name, "-ok") {
			out = append(out, name)
		}
	}
}
