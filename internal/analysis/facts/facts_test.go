package facts_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/facts"
)

// simSrc mirrors the real kernel's intrinsic signatures. Their bodies are
// empty, proving that intrinsics are structural, not derived from
// implementations; Queue.Put's fact comes from its body.
const simSrc = `package sim

type Kernel struct{}

func (k *Kernel) At(at int64, fn func()) {}

func (k *Kernel) AfterArg(d int64, fn func(any), arg any) {}

type ShardGroup struct{}

func (g *ShardGroup) SendArg(from, to int, at int64, fn func(any), arg any) {}

type Queue[T any] struct{ k *Kernel }

func (q *Queue[T]) Put(v T) { q.k.At(0, nil) }
`

const appSrc = `package app

import "sim"

func helper(k *sim.Kernel) { k.At(1, nil) }

func caller(k *sim.Kernel) { helper(k) }

func viaClosure(k *sim.Kernel) {
	fn := func() { helper(k) }
	_ = fn
}

func ping(k *sim.Kernel, n int) {
	if n > 0 {
		pong(k, n-1)
	}
}

func pong(k *sim.Kernel, n int) {
	k.At(1, nil)
	ping(k, n)
}

func generic(q *sim.Queue[int]) {
	q.Put(5)
}

func argScheduler(k *sim.Kernel, fn func(any)) {
	k.AfterArg(10, fn, k)
}

func crossShard(g *sim.ShardGroup, fn func(any)) {
	g.SendArg(0, 1, 10, fn, g)
}

func pure(n int) int { return n + 1 }
`

type checked struct {
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

// checkUniverse type-checks the sim fixture and then app against it.
func checkUniverse(t *testing.T) (sim, app checked) {
	t.Helper()
	fset := token.NewFileSet()
	load := func(path, src string, imp types.Importer) checked {
		f, err := parser.ParseFile(fset, path+".go", src, 0)
		if err != nil {
			t.Fatal(err)
		}
		info := &types.Info{
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Instances:  make(map[*ast.Ident]types.Instance),
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatal(err)
		}
		return checked{files: []*ast.File{f}, info: info, pkg: pkg}
	}
	sim = load("sim", simSrc, nil)
	app = load("app", appSrc, importerFunc(func(path string) (*types.Package, error) {
		return sim.pkg, nil
	}))
	return sim, app
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// fn finds the named function or method among the package's definitions.
func fn(t *testing.T, c checked, name string) *types.Func {
	t.Helper()
	for _, obj := range c.info.Defs {
		if f, ok := obj.(*types.Func); ok && f.Name() == name {
			return f
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

func TestLookup(t *testing.T) {
	sim, app := checkUniverse(t)
	db := facts.Compute([]facts.Source{
		{Files: sim.files, Info: sim.info},
		{Files: app.files, Info: app.info},
	})

	for _, tc := range []struct {
		in   checked
		name string
		want facts.Fact
	}{
		{sim, "At", facts.SchedulesEvents}, // intrinsic despite the empty body
		{sim, "AfterArg", facts.SchedulesEvents},
		{sim, "SendArg", facts.SchedulesEvents},
		{sim, "Put", facts.SchedulesEvents}, // generic receiver Queue[T]
		{app, "helper", facts.SchedulesEvents},
		{app, "caller", facts.SchedulesEvents}, // two hops
		{app, "viaClosure", 0},                 // closure bodies are not the caller's calls
		{app, "ping", facts.SchedulesEvents},   // mutual recursion converges
		{app, "pong", facts.SchedulesEvents},
		{app, "generic", facts.SchedulesEvents},
		{app, "argScheduler", facts.SchedulesEvents},
		{app, "crossShard", facts.SchedulesEvents},
		{app, "pure", 0},
	} {
		if got := db.Lookup(fn(t, tc.in, tc.name)); got != tc.want {
			t.Errorf("Lookup(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := db.Lookup(nil); got != 0 {
		t.Errorf("Lookup(nil) = %v, want 0", got)
	}
}

func TestChain(t *testing.T) {
	sim, app := checkUniverse(t)
	db := facts.Compute([]facts.Source{
		{Files: sim.files, Info: sim.info},
		{Files: app.files, Info: app.info},
	})

	for _, tc := range []struct {
		in   checked
		name string
		want []string
	}{
		{app, "caller", []string{"caller", "helper", "Kernel.At"}},
		{sim, "At", []string{"Kernel.At"}},
		// A cycle's chain leaves it for the intrinsic root.
		{app, "ping", []string{"ping", "pong", "Kernel.At"}},
	} {
		if got := db.Chain(fn(t, tc.in, tc.name), facts.SchedulesEvents); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Chain(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := db.Chain(nil, facts.SchedulesEvents); got != nil {
		t.Errorf("Chain(nil) = %v, want nil", got)
	}
}

func TestFactString(t *testing.T) {
	for _, tc := range []struct {
		f    facts.Fact
		want string
	}{
		{0, "none"},
		{facts.SchedulesEvents, "schedulesEvents"},
		{facts.RecordsToDB, "recordsToDB"},
		{facts.SchedulesEvents | facts.RecordsToDB, "schedulesEvents|recordsToDB"},
	} {
		if got := tc.f.String(); got != tc.want {
			t.Errorf("Fact(%d).String() = %q, want %q", tc.f, got, tc.want)
		}
	}
}

func TestIntrinsicIgnoresOtherPackages(t *testing.T) {
	// A method named At on a Kernel type in a package NOT named sim carries
	// no intrinsic fact: matching is (package, receiver, name), not name-only.
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", `package other

type Kernel struct{}

func (k *Kernel) At(at int64, fn func()) {}
`, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object)}
	var conf types.Config
	if _, err := conf.Check("other", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	db := facts.Compute([]facts.Source{{Files: []*ast.File{f}, Info: info}})
	at := fn(t, checked{info: info}, "At")
	if got := db.Lookup(at); got != 0 {
		t.Errorf("Lookup(other.Kernel.At) = %v, want 0", got)
	}
}

// TestTransportSeamsKeepFacts: the SNMP manager and the NTTCP client reach
// the simulator through an unexported interface (snmp's conn, nttcp's link),
// which a purely static call graph would cut — and with it maprange's
// knowledge that these entry points schedule the calling proc's wake-up.
// Computed over the real packages, the fact must still be there.
func TestTransportSeamsKeepFacts(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := analysis.Load(fset, "../../..", "./internal/snmp", "./internal/nttcp")
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]facts.Source, len(pkgs))
	byName := make(map[string]*types.Package)
	for i, p := range pkgs {
		srcs[i] = facts.Source{Files: p.Files, Info: p.Info}
		byName[p.Name] = p.Types
	}
	db := facts.Compute(srcs)
	const want = facts.SchedulesEvents
	for _, m := range []struct{ pkg, typ, method string }{
		{"snmp", "Client", "Get"},
		{"snmp", "Client", "Walk"},
		{"snmp", "Client", "BulkWalk"},
		{"snmp", "Notifier", "Inform"},
		{"nttcp", "Client", "Measure"},
		{"nttcp", "Client", "Reachability"},
	} {
		recv := types.NewPointer(byName[m.pkg].Scope().Lookup(m.typ).Type())
		obj, _, _ := types.LookupFieldOrMethod(recv, true, byName[m.pkg], m.method)
		fn, ok := obj.(*types.Func)
		if !ok {
			t.Errorf("%s.%s.%s not found", m.pkg, m.typ, m.method)
			continue
		}
		if got := db.Lookup(fn); got&want != want {
			t.Errorf("%s.%s.%s carries %v, want %v", m.pkg, m.typ, m.method, got, want)
		}
	}
}
