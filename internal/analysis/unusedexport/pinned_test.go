package unusedexport_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testPinned is the complete list of declarations the module may keep alive
// for tests alone, each waiting on the run that will reach it: the
// asynchronous report path (the segment watch, SNMPv2 traps and informs)
// and the interface cut of schedule fuzzing. The change that wires a name
// deletes it here; nothing is added.
var testPinned = []string{
	"chaos.Schedule.CutIface",
	"chaos.Schedule.RestoreIface",
	"cots.Monitor.WatchSegment",
	"snmp.Agent.SendTrapV2",
	"snmp.Notifier.InformAsync",
}

// pinMark is the suppression that keeps a name alive for tests alone,
// spelled in two pieces so that a grep for it finds only the marks.
const pinMark = "//lint:allow unusedexport test" + "-pinned"

// TestOnlyListedNamesAreTestPinned scans the module's non-test Go files
// (nested modules and testdata excluded) and fails when a pinMark
// suppression covers any declaration not in testPinned, covers nothing, or
// when a listed name has lost its mark.
func TestOnlyListedNamesAreTestPinned(t *testing.T) {
	root := moduleRoot(t)
	var got []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || fileExists(filepath.Join(path, "go.mod"))) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			got = append(got, pinnedIn(t, root, path)...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(got)
	for _, name := range got {
		if !slices.Contains(testPinned, name) {
			t.Errorf("%s is pinned for tests but not in the list: wire it into a run or delete it", name)
		}
	}
	for _, name := range testPinned {
		if !slices.Contains(got, name) {
			t.Errorf("%s is listed but carries no pin mark: delete it from the list", name)
		}
	}
}

// pinnedIn returns the qualified names (pkg.Name, pkg.Recv.Name or
// pkg.Type.Field) a pin mark in file covers. A mark covers a
// declaration on its own line or the next, as unusedexport reads it.
func pinnedIn(t *testing.T, root, file string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	marks := map[int]bool{} // line of each mark
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, pinMark) {
				marks[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	if len(marks) == 0 {
		return nil
	}
	pkg := f.Name.Name
	var out []string
	covered := map[int]bool{}
	cover := func(name string, pos token.Pos) {
		line := fset.Position(pos).Line
		for _, l := range []int{line, line - 1} {
			if marks[l] {
				covered[l] = true
				out = append(out, name)
				return
			}
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			name := pkg + "." + d.Name.Name
			if d.Recv != nil {
				name = pkg + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
			}
			cover(name, d.Name.Pos())
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					cover(pkg+"."+s.Name.Name, s.Name.Pos())
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, field := range st.Fields.List {
							for _, id := range field.Names {
								cover(pkg+"."+s.Name.Name+"."+id.Name, id.Pos())
							}
						}
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						cover(pkg+"."+id.Name, id.Pos())
					}
				}
			}
		}
	}
	for l := range marks {
		if !covered[l] {
			rel, _ := filepath.Rel(root, file)
			t.Errorf("%s:%d: pin mark covers no declaration", rel, l)
		}
	}
	return out
}

func recvName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}

// moduleRoot is the nearest directory, from the test's own up, that holds
// go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for !fileExists(filepath.Join(dir, "go.mod")) {
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
	return dir
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
