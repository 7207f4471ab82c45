// Package analysistest runs an analysis.Analyzer over small fixture
// packages and checks its diagnostics against expectations embedded in the
// fixtures, in the style of golang.org/x/tools/go/analysis/analysistest.
//
// Fixtures use a GOPATH-style layout under the analyzer's testdata
// directory: testdata/src/<pkg>/*.go. Imports between fixture packages
// resolve within testdata/src; standard-library imports resolve against the
// real toolchain's export data. Expected findings are marked with trailing
// comments:
//
//	k.Every(period, fn) // want `discarded`
//	//lint:allow leaktimer no longer true // want `suppresses nothing`
//
// where each backquoted or quoted string is a regular expression that must
// match a diagnostic reported on that line. Every diagnostic must be
// expected and every expectation must be matched, or the test fails.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// reporter is the slice of testing.T the harness needs; the indirection
// lets the harness's own tests observe failures instead of failing.
type reporter interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// Run loads the fixture packages from dir (typically "testdata") and drives
// the analyzer over them with the real driver, analysis.Run, comparing each
// listed package's diagnostics against its want comments. The driver's
// universe — what interprocedural facts and the reference index are computed
// over — is every listed package plus its fixture-local imports, so a
// fixture that only exists to call another one is listed too. Suppressions
// are audited as in `make analyze`: a //lint:allow that suppresses nothing
// is a "suppress" diagnostic the fixture must expect.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	run(t, dir, a, pkgs...)
}

func run(t reporter, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	l := &loader{
		src:     filepath.Join(dir, "src"),
		fset:    token.NewFileSet(),
		checked: make(map[string]*analysis.Package),
	}
	for _, pkg := range pkgs {
		if _, err := l.load(pkg); err != nil {
			t.Fatalf("load %s: %v", pkg, err)
		}
	}
	names := make([]string, 0, len(l.checked))
	for name := range l.checked {
		names = append(names, name)
	}
	sort.Strings(names)
	universe := make([]*analysis.Package, len(names))
	for i, name := range names {
		universe[i] = l.checked[name]
	}
	diags, err := analysis.Run(universe, l.fset, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("%v", err)
	}
	for _, pkg := range pkgs {
		check(t, l.fset, l.checked[pkg], diags)
	}
}

type loader struct {
	src     string
	fset    *token.FileSet
	checked map[string]*analysis.Package
	exports map[string]string
	gc      types.Importer
}

// load parses and type-checks one fixture package (memoized). Like
// analysis.Load it never reads _test.go files, so a name only they use is
// unused.
func (l *loader) load(pkg string) (*analysis.Package, error) {
	if fp, ok := l.checked[pkg]; ok {
		return fp, nil
	}
	dir := filepath.Join(l.src, pkg)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: importerFunc(l.importPkg)}
	tpkg, err := conf.Check(pkg, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	fp := &analysis.Package{PkgPath: pkg, Name: tpkg.Name(), Files: files, Types: tpkg, Info: info}
	l.checked[pkg] = fp
	return fp, nil
}

// importPkg resolves an import from a fixture: fixture-local packages load
// recursively from testdata/src, everything else comes from the toolchain's
// export data via a single shared gc importer (so a std package has one
// identity across all fixtures).
func (l *loader) importPkg(path string) (*types.Package, error) {
	if st, err := os.Stat(filepath.Join(l.src, path)); err == nil && st.IsDir() {
		fp, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return fp.Types, nil
	}
	if l.gc == nil {
		l.exports = make(map[string]string)
		l.gc = analysis.ExportImporter(l.fset, l.exports)
	}
	if _, ok := l.exports[path]; !ok {
		m, err := analysis.StdExports(path)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			l.exports[k] = v
		}
	}
	return l.gc.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// expectation is one unmatched want regexp at a file:line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// check compares the diagnostics that fall in fp's files to its // want
// comments.
func check(t reporter, fset *token.FileSet, fp *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	inPkg := make(map[string]bool, len(fp.Files))
	for _, f := range fp.Files {
		inPkg[fset.Position(f.Pos()).Filename] = true
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				// A want may trail another comment on its line — the only
				// way to expect a finding about that comment itself.
				if i := strings.Index(text, "// want "); i >= 0 {
					text = text[i+len("// "):]
				}
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range wantRe.FindAllString(strings.TrimPrefix(text, "want "), -1) {
					expr := strings.Trim(q, "`")
					if strings.HasPrefix(q, `"`) {
						expr = strings.ReplaceAll(strings.Trim(q, `"`), `\"`, `"`)
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, q, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if !inPkg[pos.Filename] {
			continue
		}
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic in %s: %s", pos, fp.PkgPath, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}
