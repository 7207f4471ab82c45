package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The documents cite three kinds of thing by number — a ROADMAP item, a
// line of a Go file and a DESIGN section — and every one of those numbers
// moves; they also cite Go names, as a backticked `pkg.Name`, and tests,
// as a TestX, FuzzX or BenchmarkX (backticked in a document, anywhere in
// a Go comment), and names get renamed and deleted. This test fails when a
// citation names one that no longer exists, and when DESIGN §3, the module
// inventory, misses a package.
//
// Scanned: the root documents below, every other *.md, the Makefile,
// scripts/*.sh, everything under .claude/skills, and the comments of
// non-test .go files. Skipped: bench/ (a module of its own, edited only
// by benchmark changes), testdata/ directories, and every root-level
// *.md outside rootDocs: CHANGES.md and ROADMAP.md are history and plan,
// and cite what has since gone on purpose.

// rootDocs are the root-level documents that describe the tree.
var rootDocs = map[string]bool{
	"README.md": true, "DESIGN.md": true, "EXPERIMENTS.md": true,
	"PAPER.md": true, "PAPERS.md": true, "SNIPPETS.md": true,
}

var (
	roadmapCite = regexp.MustCompile(`ROADMAP\s+item\s+(\d+)`)
	lineCite    = regexp.MustCompile(`([A-Za-z0-9_./-]+\.go):(\d+)`)
	designCite  = regexp.MustCompile(`DESIGN(?:\.md)?\s+§(\d+)`)
	codeSpan    = regexp.MustCompile("`([^`]+)`")
	testCite    = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*`)
	// nameCite is a code span that starts with pkg.Name, Name exported:
	// lower-case "pkg.name" spans are metric names (`sim.events`) and file
	// names (`sketch.go`), not Go. A brace list may follow
	// (`pkg.Type.{A, B}`).
	nameCite = regexp.MustCompile(`^([a-z][a-z0-9]*)((?:\.[A-Z][A-Za-z0-9_]*)+)(?:\.\{([^}]*)\})?`)

	roadmapItem   = regexp.MustCompile(`(?m)\*\*Item (\d+)\.\*\*`)
	designSection = regexp.MustCompile(`(?m)^## (\d+)\.`)
)

// docIndex is what a citation can point at.
type docIndex struct {
	items    map[int]bool   // ROADMAP.md's **Item N.** headings
	sections map[int]bool   // DESIGN.md's ## N. headings
	lines    map[string]int // slash path from the root → line count
	section3 string         // DESIGN §3's text
	// decls maps a package directory's name (internal/pkg, cmd/pkg, or
	// deeper) to the names its Go files, tests included, declare.
	decls map[string]map[string]bool
	// tests holds the top-level funcs of every _test.go outside bench/.
	tests map[string]bool
}

// skipDir reports whether the walk leaves a directory out entirely:
// version control, build and run output, and fixtures.
func skipDir(rel string) bool {
	switch rel {
	case ".git", "results", "bench/out":
		return true
	}
	return path.Base(rel) == "testdata"
}

func buildIndex(t *testing.T) *docIndex {
	t.Helper()
	ix := &docIndex{items: map[int]bool{}, sections: map[int]bool{}, lines: map[string]int{},
		decls: map[string]map[string]bool{}, tests: map[string]bool{}}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(p)
		if d.IsDir() {
			if rel != "." && skipDir(rel) {
				return filepath.SkipDir
			}
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		ix.lines[rel] = countLines(b)
		if strings.HasSuffix(rel, "_test.go") && !strings.HasPrefix(rel, "bench/") {
			if err := ix.addTests(rel, b); err != nil {
				return err
			}
		}
		if (strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/")) && strings.HasSuffix(rel, ".go") {
			return ix.addDecls(rel, b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	roadmap := readFile(t, "ROADMAP.md")
	for _, m := range roadmapItem.FindAllStringSubmatch(roadmap, -1) {
		ix.items[atoi(m[1])] = true
	}
	design := readFile(t, "DESIGN.md")
	for _, m := range designSection.FindAllStringSubmatch(design, -1) {
		ix.sections[atoi(m[1])] = true
	}
	ix.section3 = sectionText(design, 3)
	return ix
}

// addDecls records every name one Go file declares: funcs, methods,
// types, vars and consts at any depth, struct fields and interface
// methods.
func (ix *docIndex) addDecls(rel string, src []byte) error {
	f, err := parser.ParseFile(token.NewFileSet(), rel, src, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	pkg := path.Base(path.Dir(rel))
	names := ix.decls[pkg]
	if names == nil {
		names = map[string]bool{}
		ix.decls[pkg] = names
	}
	addIdents := func(ids []*ast.Ident) {
		for _, id := range ids {
			names[id.Name] = true
		}
	}
	addFields := func(fl *ast.FieldList) {
		for _, fd := range fl.List {
			addIdents(fd.Names)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			names[n.Name.Name] = true
		case *ast.TypeSpec:
			names[n.Name.Name] = true
		case *ast.ValueSpec:
			addIdents(n.Names)
		case *ast.StructType:
			addFields(n.Fields)
		case *ast.InterfaceType:
			addFields(n.Methods)
		}
		return true
	})
	return nil
}

// addTests records the top-level funcs one _test.go file declares.
func (ix *docIndex) addTests(rel string, src []byte) error {
	f, err := parser.ParseFile(token.NewFileSet(), rel, src, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
			ix.tests[fd.Name.Name] = true
		}
	}
	return nil
}

func countLines(b []byte) int {
	n := strings.Count(string(b), "\n")
	if len(b) > 0 && b[len(b)-1] != '\n' {
		n++
	}
	return n
}

func atoi(s string) int {
	n, err := strconv.Atoi(s)
	if err != nil {
		return -1
	}
	return n
}

func readFile(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sectionText returns DESIGN's "## n." section up to the next "## ".
func sectionText(design string, n int) string {
	head := fmt.Sprintf("\n## %d.", n)
	i := strings.Index(design, head)
	if i < 0 {
		return ""
	}
	rest := design[i+len(head):]
	if j := strings.Index(rest, "\n## "); j >= 0 {
		rest = rest[:j]
	}
	return rest
}

// staleCitations returns one message per citation in text that names
// nothing. name is the file the text came from, for the message; line is
// the line text starts on; goComment says text is a Go comment, where a
// test is cited without backticks.
func (ix *docIndex) staleCitations(name string, line int, text string, goComment bool) []string {
	var out []string
	at := func(off int) string {
		return fmt.Sprintf("%s:%d", name, line+strings.Count(text[:off], "\n"))
	}
	for _, m := range roadmapCite.FindAllStringSubmatchIndex(text, -1) {
		if n := atoi(text[m[2]:m[3]]); !ix.items[n] {
			out = append(out, fmt.Sprintf("%s: %q: ROADMAP.md has no **Item %d.**", at(m[0]), text[m[0]:m[1]], n))
		}
	}
	for _, m := range lineCite.FindAllStringSubmatchIndex(text, -1) {
		file, n := text[m[2]:m[3]], atoi(text[m[4]:m[5]])
		if msg := ix.lineProblem(file, n); msg != "" {
			out = append(out, fmt.Sprintf("%s: %q: %s", at(m[0]), text[m[0]:m[1]], msg))
		}
	}
	for _, m := range designCite.FindAllStringSubmatchIndex(text, -1) {
		if n := atoi(text[m[2]:m[3]]); !ix.sections[n] {
			out = append(out, fmt.Sprintf("%s: %q: DESIGN.md has no \"## %d.\"", at(m[0]), text[m[0]:m[1]], n))
		}
	}
	testsIn := func(from, to int) {
		for _, m := range testCite.FindAllStringIndex(text[from:to], -1) {
			if name := text[from+m[0] : from+m[1]]; !ix.tests[name] {
				out = append(out, fmt.Sprintf("%s: %s: no _test.go declares it", at(from+m[0]), name))
			}
		}
	}
	for _, m := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
		if msg := ix.nameProblem(text[m[2]:m[3]]); msg != "" {
			out = append(out, fmt.Sprintf("%s: %q: %s", at(m[0]), text[m[0]:m[1]], msg))
		}
		if !goComment {
			testsIn(m[2], m[3])
		}
	}
	if goComment {
		testsIn(0, len(text))
	}
	return out
}

// nameProblem checks a code span that cites pkg.Name (or pkg.Type.Method,
// or pkg.Type.{A, B}): when pkg is a package of the tree, each dotted name
// and each name in the braces must be declared in it. Spans about other
// packages (`time.Duration`) are not checked.
func (ix *docIndex) nameProblem(span string) string {
	m := nameCite.FindStringSubmatch(span)
	if m == nil {
		return ""
	}
	names, ok := ix.decls[m[1]]
	if !ok {
		return ""
	}
	cited := strings.Split(m[2][1:], ".")
	if m[3] != "" {
		for _, name := range strings.Split(m[3], ",") {
			cited = append(cited, strings.TrimSpace(name))
		}
	}
	for _, name := range cited {
		if !names[name] {
			return fmt.Sprintf("package %s declares no %s", m[1], name)
		}
	}
	return ""
}

// lineProblem checks a file.go:N citation. A citation may shorten the path
// from the left (sketch/property_test.go:213); it holds if some file whose
// path ends that way has at least n lines.
func (ix *docIndex) lineProblem(file string, n int) string {
	file = strings.TrimPrefix(file, "./")
	found, longest := false, 0
	for p, lines := range ix.lines {
		if p == file || strings.HasSuffix(p, "/"+file) {
			found = true
			longest = max(longest, lines)
		}
	}
	switch {
	case !found:
		return "no such file"
	case n < 1 || n > longest:
		return fmt.Sprintf("line %d is past the end (%d lines)", n, longest)
	}
	return ""
}

// unlistedPackages returns each directory of dirs that DESIGN §3 does not
// name in backquotes.
func (ix *docIndex) unlistedPackages(dirs []string) []string {
	var out []string
	for _, d := range dirs {
		if !strings.Contains(ix.section3, "`"+d+"`") {
			out = append(out, d)
		}
	}
	return out
}

// scanned reports whether a file's citations are checked, and whether only
// its comments are (a Go file).
func scanned(rel string) (scan, goComments bool) {
	if strings.HasPrefix(rel, "bench/") {
		return false, false
	}
	dir, base := path.Split(rel)
	switch {
	case strings.HasSuffix(rel, ".go"):
		return !strings.HasSuffix(rel, "_test.go"), true
	case strings.HasPrefix(rel, ".claude/skills/"):
		return true, false
	case rel == "Makefile", dir == "scripts/" && strings.HasSuffix(base, ".sh"):
		return true, false
	case strings.HasSuffix(rel, ".md"):
		return dir != "" || rootDocs[rel], false
	}
	return false, false
}

// staleIn checks one file's content.
func (ix *docIndex) staleIn(rel string, src []byte, goComments bool) ([]string, error) {
	if !goComments {
		return ix.staleCitations(rel, 1, string(src), false), nil
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, rel, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, cg := range f.Comments {
		out = append(out, ix.staleCitations(rel, fset.Position(cg.Pos()).Line, cg.Text(), true)...)
	}
	return out, nil
}

func TestDocCitations(t *testing.T) {
	ix := buildIndex(t)
	var files []string
	for p := range ix.lines {
		files = append(files, p)
	}
	sort.Strings(files)
	checked := 0
	for _, rel := range files {
		scan, goComments := scanned(rel)
		if !scan {
			continue
		}
		checked++
		msgs, err := ix.staleIn(rel, []byte(readFile(t, rel)), goComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			t.Error(m)
		}
	}
	if checked < 100 {
		t.Fatalf("scanned %d files; the walk lost the tree", checked)
	}
}

func TestDesignInventoryNamesEveryPackage(t *testing.T) {
	ix := buildIndex(t)
	dirs := packageDirs(ix)
	if len(dirs) < 40 {
		t.Fatalf("found %d package directories; the walk lost the tree", len(dirs))
	}
	for _, d := range ix.unlistedPackages(dirs) {
		t.Errorf("DESIGN §3 does not name `%s`", d)
	}
}

// packageDirs lists every directory under internal/ and cmd/ that holds a
// non-test .go file.
func packageDirs(ix *docIndex) []string {
	seen := map[string]bool{}
	for p := range ix.lines {
		if (strings.HasPrefix(p, "internal/") || strings.HasPrefix(p, "cmd/")) &&
			strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			seen[path.Dir(p)] = true
		}
	}
	var dirs []string
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs
}

// TestDocCitationKinds feeds the checker one stale and one valid citation
// of each kind, against the real tree's index.
func TestDocCitationKinds(t *testing.T) {
	ix := buildIndex(t)
	cases := []struct {
		name, file, text string
		stale            bool
	}{
		{"retired roadmap item", "README.md", "see ROADMAP item 1", true},
		{"open roadmap item", "README.md", "see ROADMAP item 5 (a)", false},
		{"roadmap item across a line break", "README.md", "see ROADMAP\nitem 2", true},
		{"line past the end", "DESIGN.md", "`internal/core/database.go:9999`", true},
		{"line inside the file", "DESIGN.md", "`internal/core/database.go:1`", false},
		{"shortened path", "DESIGN.md", "sketch/property_test.go:1", false},
		{"no such file", "DESIGN.md", "internal/core/nosuch.go:1", true},
		{"missing design section", "Makefile", "# see DESIGN §15", true},
		{"missing design section, .md form", "scripts/x.sh", "# DESIGN.md §15", true},
		{"design section", "Makefile", "# see DESIGN.md §7", false},
		{"go comment", "internal/x/x.go", "package x\n\n// See DESIGN §15.\nvar V = 1\n", true},
		{"go string is not a comment", "internal/x/x.go", "package x\n\nvar V = \"DESIGN §15\"\n", false},
		{"undeclared go name", "DESIGN.md", "`cots.EnsureAgents`", true},
		{"undeclared method after a declared type", "DESIGN.md", "`core.ShardedMonitor.Members`", true},
		{"declared go name and method", "DESIGN.md", "`cots.EnsureAgentOn` and `core.ShardedMonitor.AggregateSketch(m, ids)`", false},
		{"stale name in a brace list", "DESIGN.md", "`manager.Policy.{MaxLatency, MaxJitter}`", true},
		{"declared brace list", "DESIGN.md", "`manager.Policy.{RequireReachable, Grace, EvalInterval}`", false},
		{"undeclared test", "DESIGN.md", "`TestWatermarksDeriveFromQueueCap`", true},
		{"declared tests", "DESIGN.md", "`go test -run TestDocCitations/x .`, `FuzzSupervise` and `BenchmarkTrapIngest`", false},
		{"undeclared test in a go comment", "internal/x/x.go", "package x\n\n// TestNoSuchThing holds V.\nvar V = 1\n", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, goComments := scanned(c.file)
			msgs, err := ix.staleIn(c.file, []byte(c.text), goComments)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(msgs) > 0; got != c.stale {
				t.Fatalf("stale = %v, want %v (%q)", got, c.stale, msgs)
			}
		})
	}
	t.Run("unlisted package", func(t *testing.T) {
		dirs := append(packageDirs(ix), "internal/unlisted")
		if got := ix.unlistedPackages(dirs); len(got) != 1 || got[0] != "internal/unlisted" {
			t.Fatalf("unlisted = %q, want only internal/unlisted", got)
		}
	})
	t.Run("listed packages", func(t *testing.T) {
		if got := ix.unlistedPackages([]string{"internal/sim", "cmd/experiments"}); len(got) != 0 {
			t.Fatalf("unlisted = %q, want none", got)
		}
	})
}
