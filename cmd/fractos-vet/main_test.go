package main

import (
	"fmt"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestModuleLintsClean runs the whole suite, and the directive check,
// over the module and expects no finding, so a broken rule or a
// misspelt directive fails `go test ./...`, not only `make lint`.
func TestModuleLintsClean(t *testing.T) {
	t.Parallel()
	findings, err := vet("fractos/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s: [%s] %s", f.pos, f.analyzer, f.message)
	}
}

// TestVetOnePackage: a pattern that names one package analyzes that
// package alone, with no finding; the module packages it imports are
// loaded for their directives only (TestRegcheck's and TestSendcheck's
// fixtures show that those directives are read).
func TestVetOnePackage(t *testing.T) {
	t.Parallel()
	prog, err := load("fractos/internal/core")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.targets) != 1 || prog.targets[0].path != "fractos/internal/core" {
		t.Fatalf("targets %d, want fractos/internal/core alone", len(prog.targets))
	}
	for _, f := range prog.run(all) {
		t.Errorf("%s: [%s] %s", f.pos, f.analyzer, f.message)
	}
}

func TestMustuse(t *testing.T)    { checkFixture(t, mustuse, "mustuse") }
func TestRegcheck(t *testing.T)   { checkFixture(t, mustuse, "mustuse/registry") }
func TestSendcheck(t *testing.T)  { checkFixture(t, mustuse, "mustuse/send") }
func TestPanicfree(t *testing.T)  { checkFixture(t, panicfree, "panicfree") }
func TestSimdet(t *testing.T)     { checkFixture(t, simdet, "simdet") }
func TestDirectives(t *testing.T) { checkFixture(t, directives, "directives") }

// fixtures loads the packages under testdata once for every test.
var fixtures = sync.OnceValues(func() (*program, error) {
	return load("./testdata/mustuse", "./testdata/mustuse/registry", "./testdata/mustuse/send", "./testdata/panicfree", "./testdata/simdet", "./testdata/directives")
})

// wantRx matches one quoted regexp of a `// want` comment.
var wantRx = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// checkFixture runs a over the package testdata/<dir> and matches its
// findings with the package's `// want` comments: the regexps quoted
// after "want" must each match a distinct finding on the comment's
// line, and every finding must be matched.
func checkFixture(t *testing.T, a *analyzer, dir string) {
	t.Parallel()
	prog, err := fixtures()
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(prog.targets, func(p *pkg) bool { return strings.HasSuffix(p.path, "/testdata/"+dir) })
	if i < 0 {
		t.Fatalf("no package testdata/%s", dir)
	}
	p := prog.targets[i]
	wants := make(map[string][]*regexp.Regexp) // by "file:line"
	for _, f := range p.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if _, pats, ok := strings.Cut(c.Text, "want "); ok {
					pos := prog.fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					for _, m := range wantRx.FindAllStringSubmatch(pats, -1) {
						wants[key] = append(wants[key], regexp.MustCompile(m[1]+m[2]))
					}
				}
			}
		}
	}
	one := &program{fset: prog.fset, targets: []*pkg{p}, index: prog.index}
	for _, f := range one.run([]*analyzer{a}) {
		key := fmt.Sprintf("%s:%d", f.pos.Filename, f.pos.Line)
		j := slices.IndexFunc(wants[key], func(rx *regexp.Regexp) bool { return rx.MatchString(f.message) })
		if j < 0 {
			t.Errorf("%s: unexpected finding: %s", f.pos, f.message)
			continue
		}
		wants[key] = slices.Delete(wants[key], j, j+1)
	}
	for key, rxs := range wants {
		for _, rx := range rxs {
			t.Errorf("%s: no finding matches %q", key, rx)
		}
	}
}
