package main

import (
	"go/ast"
	"go/types"
	"strings"
	"unicode"
)

// prefix starts every directive and waiver: "//fractos:mustuse" on a
// declaration, "// fractos:panic-ok <reason>" on a line.
const prefix = "fractos:"

// index maps each declared function, method, interface method and
// named type of the loaded module packages to the directives in its doc
// comment, name to argument.
type index map[types.Object]map[string]string

// add indexes the declarations of p.
func (x index) add(p *pkg) {
	add := func(id *ast.Ident, doc *ast.CommentGroup) {
		if doc == nil {
			return
		}
		obj := p.info.Defs[id]
		for _, c := range doc.List {
			if name, arg, ok := directive(c.Text); ok {
				if x[obj] == nil {
					x[obj] = make(map[string]string)
				}
				x[obj][name] = arg
			}
		}
	}
	for _, f := range p.files {
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

// directive returns the argument of the named directive on obj's
// declaration — the text after the name, "" if there is none — and
// whether the declaration carries the directive at all. A directive is
// a doc-comment line that starts with the prefix, such as
// "//fractos:ordered"; prose that mentions one mid-sentence is not.
func (p *pass) directive(obj types.Object, name string) (string, bool) {
	if fn, ok := obj.(*types.Func); ok && fn != nil {
		obj = fn.Origin()
	}
	arg, ok := p.prog.index[obj][name]
	return arg, ok
}

// directive splits a comment line that starts with the prefix into the
// directive's name and argument.
func directive(text string) (name, arg string, ok bool) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(text[2:]), prefix)
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

// directives is the check the driver runs beside the suite: it reports
// every directive, and every waiver anywhere in a comment, that no
// analyzer of the suite reads. A misspelt marker would otherwise switch
// its check off without a word.
var directives = &analyzer{name: "directives", run: func(p *pass) {
	known := make(map[string]bool)
	for _, a := range all {
		known[a.waiver] = true
		for _, d := range a.directives {
			known[d] = true
		}
	}
	for _, f := range p.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, name := range markers(c.Text) {
					if !known[name] {
						p.report(c.Pos(), "%s%s is read by no analyzer", prefix, name)
					}
				}
			}
		}
	}
}}

// markers returns the directive a comment line starts with, if any,
// and every waiver (a name ending in "-ok") the line mentions.
func markers(text string) []string {
	_, _, lead := directive(text)
	var out []string
	for s := text; ; lead = false {
		i := strings.Index(s, prefix)
		if i < 0 {
			return out
		}
		s = s[i+len(prefix):]
		if name := markerName(s); lead || strings.HasSuffix(name, "-ok") {
			out = append(out, name)
		}
	}
}
