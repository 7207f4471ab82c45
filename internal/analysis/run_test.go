package analysis

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// stubAnalyzer flags every function whose name starts with Bad, honouring
// the stubkey suppression.
var stubAnalyzer = &Analyzer{
	Name: "stub",
	Doc:  "flag functions named Bad*",
	Keys: []string{"stubkey"},
	Run: func(p *Pass) error {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !strings.HasPrefix(fd.Name.Name, "Bad") {
					continue
				}
				if p.Allowed(fd.Pos(), "stubkey") {
					continue
				}
				p.Reportf(fd.Pos(), "bad function %s", fd.Name.Name)
			}
		}
		return nil
	},
}

const p1Src = `package p1

func BadOne() {}

//lint:allow stubkey known cold path
func BadTwo() {}

//lint:allow stubkey stale: nothing flagged here
func GoodOne() {}

//lint:allow bogus no analyzer owns this key
func GoodTwo() {}
`

const p2Src = `package p2

func BadAlpha() {}

func BadBeta() {}
`

// checkPkg type-checks one import-free source file into a loader-shaped
// Package so driver tests need no `go list` round trip.
func checkPkg(t *testing.T, fset *token.FileSet, path, filename, src string) *Package {
	t.Helper()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := NewInfo()
	var conf types.Config
	tpkg, err := conf.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{PkgPath: path, Name: tpkg.Name(), Files: []*ast.File{f}, Types: tpkg, Info: info}
}

func testPackages(t *testing.T, fset *token.FileSet) []*Package {
	return []*Package{
		checkPkg(t, fset, "p1", "p1/p1.go", p1Src),
		checkPkg(t, fset, "p2", "p2/p2.go", p2Src),
	}
}

func render(fset *token.FileSet, diags []Diagnostic) string {
	var buf bytes.Buffer
	Print(&buf, fset, diags)
	return buf.String()
}

func TestRunSuppressionAudit(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := testPackages(t, fset)
	diags, err := Run(pkgs, fset, []*Analyzer{stubAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	out := render(fset, diags)
	for _, want := range []string{
		"p1/p1.go:3:1: stub: bad function BadOne",
		"p1/p1.go:8:1: suppress: //lint:allow stubkey suppresses nothing",
		"p1/p1.go:11:1: suppress: //lint:allow bogus: no registered analyzer knows this key",
		"p2/p2.go:3:1: stub: bad function BadAlpha",
		"p2/p2.go:5:1: stub: bad function BadBeta",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing diagnostic %q in:\n%s", want, out)
		}
	}
	if len(diags) != 5 {
		t.Errorf("got %d diagnostics, want 5:\n%s", len(diags), out)
	}
	// The consumed BadTwo suppression must not be reported stale.
	if strings.Contains(out, "p1/p1.go:5") {
		t.Errorf("consumed suppression reported stale:\n%s", out)
	}
}
