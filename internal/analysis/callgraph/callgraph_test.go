package callgraph_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"testing"

	"repro/internal/analysis/callgraph"
)

// checkSrc type-checks one import-free source file as package path pkg.
func checkSrc(t *testing.T, pkg, src string) ([]*ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, pkg+".go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	// The sources under test are import-free, so no importer is needed.
	var conf types.Config
	if _, err := conf.Check(pkg, fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	return []*ast.File{f}, info
}

const graphSrc = `package p

type T struct{}

func (t *T) M() { leaf() }

type I interface{ Dyn() }

func leaf() {}

func mid(t *T) {
	leaf()
	t.M()
	leaf() // duplicate: edge recorded once
}

func top(t *T, i I, fn func()) {
	mid(t)
	i.Dyn() // interface dispatch: no edge
	fn()    // function value: no edge
	g := func() { leaf() } // closure body: not top's edge
	g()
}
`

func TestGraphEdges(t *testing.T) {
	files, info := checkSrc(t, "p", graphSrc)
	g := callgraph.New()
	g.AddPackage(files, info)

	want := map[string][]string{
		"(*p.T).M": {"p.leaf"},
		"p.leaf":   nil,
		"p.mid":    {"p.leaf", "(*p.T).M"},
		"p.top":    {"p.mid"},
	}
	if len(g.Nodes) != len(want) {
		t.Errorf("graph has %d nodes, want %d: %v", len(g.Nodes), len(want), keys(g.Nodes))
	}
	for k, calls := range want {
		n := g.Nodes[k]
		if n == nil {
			t.Errorf("missing node %q", k)
			continue
		}
		if !reflect.DeepEqual(n.Calls, calls) {
			t.Errorf("node %q calls %v, want %v", k, n.Calls, calls)
		}
	}
}

// TestSeamEdges: a call through an unexported named interface gets an edge
// to each implementation in the package — promoted methods included — and
// a call through an exported one still gets none.
func TestSeamEdges(t *testing.T) {
	const src = `package p

type proc struct{}

func (*proc) Sleep() {}

type seam interface {
	recv()
	Sleep()
}

type simSide struct{ *proc }

func (*simSide) recv() {}

type realSide struct{}

func (realSide) recv()  {}
func (realSide) Sleep() {}

type bystander struct{}

func (bystander) recv() {}

type Open interface{ recv() }

func engine(s seam, o Open) {
	s.recv()
	s.Sleep()
	o.recv()
}
`
	files, info := checkSrc(t, "p", src)
	g := callgraph.New()
	g.AddPackage(files, info)
	want := []string{"(p.realSide).recv", "(*p.simSide).recv", "(p.realSide).Sleep", "(*p.proc).Sleep"}
	if got := g.Nodes["p.engine"].Calls; !reflect.DeepEqual(got, want) {
		t.Errorf("engine calls %v, want %v", got, want)
	}
}

func keys(m map[string]*callgraph.Node) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestStaticCallee(t *testing.T) {
	files, info := checkSrc(t, "p", graphSrc)
	resolved := make(map[string]bool)
	ast.Inspect(files[0], func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := callgraph.StaticCallee(info, call); fn != nil {
			resolved[callgraph.Key(fn)] = true
		}
		return true
	})
	for _, want := range []string{"p.leaf", "(*p.T).M", "p.mid"} {
		if !resolved[want] {
			t.Errorf("static call to %s not resolved", want)
		}
	}
	// Neither dynamic call resolved to anything.
	if len(resolved) != 3 {
		t.Errorf("resolved %v, want exactly p.leaf, (*p.T).M, p.mid", resolved)
	}
}
