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

// simSrc mirrors the real kernel's intrinsic signatures; bodies are empty,
// proving that intrinsics are structural, not derived from implementations.
const simSrc = `package sim

type Proc struct{}

func (p *Proc) Sleep(d int64) {}

type Kernel struct{}

func (k *Kernel) At(at int64, fn func()) {}

func (k *Kernel) AfterArg(d int64, fn func(any), arg any) {}

type ShardGroup struct{}

func (g *ShardGroup) SendArg(from, to int, at int64, fn func(any), arg any) {}

type Queue[T any] struct{}

func (q *Queue[T]) Get(p *Proc, timeout int64) (T, bool) { var z T; return z, false }
`

const appSrc = `package app

import "sim"

func helper(p *sim.Proc) { p.Sleep(1) }

func caller(p *sim.Proc) { helper(p) }

func viaClosure(p *sim.Proc) {
	fn := func() { helper(p) }
	_ = fn
}

func ping(p *sim.Proc, n int) {
	if n > 0 {
		pong(p, n-1)
	}
}

func pong(p *sim.Proc, n int) {
	p.Sleep(1)
	ping(p, n)
}

func generic(q *sim.Queue[int], p *sim.Proc) {
	q.Get(p, 5)
}

func scheduler(k *sim.Kernel, fn func()) {
	k.At(10, fn)
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
		{sim, "Sleep", facts.MayYield}, // intrinsic despite the empty body
		{sim, "At", facts.SchedulesEvents},
		{sim, "AfterArg", facts.SchedulesEvents},
		{sim, "SendArg", facts.SchedulesEvents},
		{sim, "Get", facts.MayYield}, // generic receiver Queue[T]
		{app, "helper", facts.MayYield},
		{app, "caller", facts.MayYield}, // two hops
		{app, "viaClosure", 0},          // closure bodies are not the caller's calls
		{app, "ping", facts.MayYield},   // mutual recursion converges
		{app, "pong", facts.MayYield},
		{app, "generic", facts.MayYield},
		{app, "scheduler", facts.SchedulesEvents},
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

	if got := db.Chain(fn(t, app, "caller"), facts.MayYield); !reflect.DeepEqual(got, []string{"caller", "helper", "Proc.Sleep"}) {
		t.Errorf("Chain(caller) = %v", got)
	}
	if got := db.Chain(fn(t, sim, "Sleep"), facts.MayYield); !reflect.DeepEqual(got, []string{"Proc.Sleep"}) {
		t.Errorf("Chain(Sleep) = %v", got)
	}
	// A cyclic chain terminates instead of looping.
	chain := db.Chain(fn(t, app, "ping"), facts.MayYield)
	if len(chain) == 0 || len(chain) > 4 {
		t.Errorf("Chain(ping) = %v, want short terminating chain", chain)
	}
	if got := db.Chain(nil, facts.MayYield); got != nil {
		t.Errorf("Chain(nil) = %v, want nil", got)
	}
}

func TestFactString(t *testing.T) {
	for _, tc := range []struct {
		f    facts.Fact
		want string
	}{
		{0, "none"},
		{facts.MayYield, "mayYield"},
		{facts.SchedulesEvents, "schedulesEvents"},
		{facts.RecordsToDB, "recordsToDB"},
		{facts.MayYield | facts.RecordsToDB, "mayYield|recordsToDB"},
	} {
		if got := tc.f.String(); got != tc.want {
			t.Errorf("Fact(%d).String() = %q, want %q", tc.f, got, tc.want)
		}
	}
}

func TestIntrinsicIgnoresOtherPackages(t *testing.T) {
	// A method named Sleep on a Proc type in a package NOT named sim carries
	// no intrinsic fact: matching is (package, receiver, name), not name-only.
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", `package other

type Proc struct{}

func (p *Proc) Sleep(d int64) {}
`, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Defs: make(map[*ast.Ident]types.Object)}
	var conf types.Config
	if _, err := conf.Check("other", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	for _, obj := range info.Defs {
		if fnObj, ok := obj.(*types.Func); ok && fnObj.Name() == "Sleep" {
			if got := facts.Intrinsic(fnObj); got != 0 {
				t.Errorf("Intrinsic(other.Proc.Sleep) = %v, want 0", got)
			}
			return
		}
	}
	t.Fatal("Sleep not found")
}

// TestTransportSeamsKeepFacts: the SNMP manager and the NTTCP client reach
// the simulator through an unexported interface (snmp's conn, nttcp's link),
// which a purely static call graph would cut — and with it locksafe's and
// maprange's knowledge that these entry points park the calling proc and
// schedule its wake-up. Computed over the real packages, the facts must
// still be there.
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
	const want = facts.MayYield | facts.SchedulesEvents
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
