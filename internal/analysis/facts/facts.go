// Package facts computes per-function summary facts interprocedurally, in
// the spirit of golang.org/x/tools/go/analysis facts but over the repo's
// stdlib-only loader. A fact is a property of calling a function:
//
//   - MayYield: a call may re-enter the simulation scheduler (park the
//     calling Proc, drive a kernel or shard barrier). Holding a sync mutex
//     across such a call freezes the cooperative scheduler (locksafe).
//   - SchedulesEvents: a call inserts events into a kernel's queue (At,
//     After, Every, their Arg forms, Spawn, cross-shard Send) — anything
//     whose *order of invocation* changes the (at, seq) order of the event
//     heap.
//   - RecordsToDB: a call appends to an order-sensitive data sink — the
//     measurement database or an experiment report table — so invoking it
//     from an unordered iteration produces nondeterministic output.
//
// Ground-truth facts are intrinsic to a handful of sim/core/report
// signatures (see Intrinsic) and are recognized structurally — by package
// name, receiver type name, and method name — so they hold whether the
// defining package was loaded from source or from gc export data, and so
// analyzer test fixtures that mirror those signatures participate for free.
// Everything else is derived bottom-up over the SCC condensation of the
// call graph: a function acquires a fact when any statically resolvable
// call in its body (outside nested function literals, which run at another
// time) reaches a function holding that fact.
//
// Facts cross package boundaries by construction: functions are keyed by
// callgraph.Key, which is identical for the source-checked definition of a
// function and for the export-data view an importing package sees, so a
// single DB computed over the whole load universe answers for every caller.
package facts

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/callgraph"
)

// Fact is a bitset of per-function summary facts.
type Fact uint8

const (
	MayYield Fact = 1 << iota
	SchedulesEvents
	RecordsToDB

	numFacts = 3
)

// String names the set, e.g. "mayYield|schedulesEvents".
func (f Fact) String() string {
	var parts []string
	if f&MayYield != 0 {
		parts = append(parts, "mayYield")
	}
	if f&SchedulesEvents != 0 {
		parts = append(parts, "schedulesEvents")
	}
	if f&RecordsToDB != 0 {
		parts = append(parts, "recordsToDB")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// Source is one package's analyzable view, the subset of the loader's
// Package that fact computation needs.
type Source struct {
	Files []*ast.File
	Info  *types.Info
}

// DB holds the computed facts for a load universe.
type DB struct {
	graph   *callgraph.Graph
	derived map[string]Fact
	// witness[i][key] is the callee key through which fact bit i first
	// reached key, for reconstructing a call chain in diagnostics.
	witness [numFacts]map[string]string
}

// Compute builds the call graph over pkgs and propagates intrinsic facts
// bottom-up. The result is deterministic for a given universe.
func Compute(pkgs []Source) *DB {
	g := callgraph.New()
	for _, p := range pkgs {
		g.AddPackage(p.Files, p.Info)
	}
	db := &DB{graph: g, derived: make(map[string]Fact, len(g.Nodes))}
	for i := range db.witness {
		db.witness[i] = make(map[string]string)
	}

	// Reverse-topological component order: callees are final before any
	// caller is visited. Within a cyclic component, members converge to the
	// component-wide union by iterating until fixpoint (at most numFacts
	// rounds, since the union only grows).
	for _, scc := range g.SCCs() {
		for changed := true; changed; {
			changed = false
			for _, key := range scc {
				f := db.derived[key]
				for _, callee := range g.Nodes[key].Calls {
					cf := db.derived[callee] | intrinsicKey(callee)
					if add := cf &^ f; add != 0 {
						f |= add
						for i := 0; i < numFacts; i++ {
							if add&(1<<i) != 0 {
								db.witness[i][key] = callee
							}
						}
						changed = true
					}
				}
				db.derived[key] = f
			}
		}
	}
	return db
}

// Lookup returns the full fact set for fn: its intrinsic facts plus
// everything derived from its body. fn may come from source or export data.
func (db *DB) Lookup(fn *types.Func) Fact {
	if fn == nil {
		return 0
	}
	return Intrinsic(fn) | db.derived[callgraph.Key(fn)]
}

// Chain reconstructs one call path by which fn acquired fact — from fn
// through intermediate callees down to the intrinsic root — as a slice of
// short function names (e.g. ["poll", "drain", "(*Proc).Sleep"]). A
// function holding the fact intrinsically yields a one-element chain.
func (db *DB) Chain(fn *types.Func, fact Fact) []string {
	if fn == nil || fact == 0 {
		return nil
	}
	bit := -1
	for i := 0; i < numFacts; i++ {
		if fact&(1<<i) != 0 {
			bit = i
			break
		}
	}
	key := callgraph.Key(fn)
	chain := []string{shortName(key)}
	if Intrinsic(fn)&fact != 0 {
		return chain
	}
	seen := map[string]bool{key: true}
	for {
		next, ok := db.witness[bit][key]
		if !ok || seen[next] {
			return chain
		}
		seen[next] = true
		chain = append(chain, shortName(next))
		if intrinsicKey(next)&fact != 0 || db.derived[next]&fact == 0 {
			return chain
		}
		key = next
	}
}

// shortName strips the package path from a callgraph key:
// "(*repro/internal/sim.Kernel).Run" -> "Kernel.Run",
// "repro/internal/sim.NewKernel" -> "NewKernel".
func shortName(key string) string {
	_, recv, name := splitKey(key)
	if recv != "" {
		return recv + "." + name
	}
	return name
}

// Intrinsic returns the ground-truth facts carried by fn's signature
// itself, independent of its body. Matching is structural — package *name*,
// receiver type name, method name — so it works identically for
// repro/internal/sim loaded from source, the same package seen through
// export data, and test fixtures that mirror the signatures.
func Intrinsic(fn *types.Func) Fact {
	if fn == nil || fn.Pkg() == nil {
		return 0
	}
	fn = fn.Origin()
	return intrinsic(fn.Pkg().Name(), recvTypeName(fn), fn.Name())
}

// intrinsicKey is Intrinsic over a callgraph key, for callees referenced by
// the graph but defined outside the load universe.
func intrinsicKey(key string) Fact {
	pkg, recv, name := splitKey(key)
	return intrinsic(pkg, recv, name)
}

func intrinsic(pkgName, recv, name string) Fact {
	switch pkgName {
	case "sim":
		switch recv {
		case "Proc":
			switch name {
			case "Sleep", "Yield", "park":
				return MayYield
			}
		case "Queue":
			if name == "Get" {
				return MayYield
			}
		case "Kernel":
			switch name {
			case "Run", "RunUntil", "runBefore", "resumeProc", "Close", "closeLocal":
				return MayYield
			case "At", "After", "AtArg", "AfterArg", "Every", "schedule", "Spawn":
				return SchedulesEvents
			}
		case "ShardGroup":
			switch name {
			case "Run", "RunUntil", "Close":
				return MayYield
			case "Send", "SendArg":
				return SchedulesEvents
			}
		}
	case "core":
		if recv == "Database" && name == "Record" {
			return RecordsToDB
		}
	case "report":
		if recv == "Table" && (name == "AddRow" || name == "AddNote") {
			return RecordsToDB
		}
	}
	return 0
}

// recvTypeName returns the name of fn's receiver's named type ("" for plain
// functions), looking through pointers.
func recvTypeName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// splitKey decomposes a callgraph key into (package name, receiver type
// name, function name). The package path keeps only its last element, to
// match Intrinsic's structural scheme.
func splitKey(key string) (pkg, recv, name string) {
	if strings.HasPrefix(key, "(") {
		// "(*path/pkg.Recv).Name" or "(path/pkg.Recv).Name"
		end := strings.IndexByte(key, ')')
		if end < 0 || end+2 > len(key) {
			return "", "", ""
		}
		inner := strings.TrimPrefix(key[1:end], "*")
		name = key[end+2:]
		dot := strings.LastIndexByte(inner, '.')
		if dot < 0 {
			return "", "", ""
		}
		pkgPath := inner[:dot]
		recv = inner[dot+1:]
		if i := strings.IndexByte(recv, '['); i >= 0 {
			recv = recv[:i] // generic receiver: Queue[T] -> Queue
		}
		if i := strings.LastIndexByte(pkgPath, '/'); i >= 0 {
			pkgPath = pkgPath[i+1:]
		}
		return pkgPath, recv, name
	}
	dot := strings.LastIndexByte(key, '.')
	if dot < 0 {
		return "", "", key
	}
	pkgPath := key[:dot]
	name = key[dot+1:]
	if i := strings.LastIndexByte(pkgPath, '/'); i >= 0 {
		pkgPath = pkgPath[i+1:]
	}
	return pkgPath, "", name
}
