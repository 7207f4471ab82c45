// Package facts computes per-function summary facts interprocedurally, in
// the spirit of golang.org/x/tools/go/analysis facts but over the repo's
// stdlib-only loader. A fact is a property of calling a function:
//
//   - SchedulesEvents: a call inserts events into a kernel's queue (At,
//     After, Every, their Arg forms, Spawn, cross-shard Send) — anything
//     whose *order of invocation* changes the (at, seq) order of the event
//     heap.
//   - RecordsToDB: a call appends to an order-sensitive data sink — the
//     measurement database or an experiment report table — so invoking it
//     from an unordered iteration produces nondeterministic output.
//
// Ground-truth facts are intrinsic to a handful of sim/core/report
// signatures (see intrinsic) and are recognized structurally — by package
// name, receiver type name, and method name — so they hold whether the
// defining package was loaded from source or from gc export data, and so
// analyzer test fixtures that mirror those signatures participate for free.
// Everything else is derived by iterating over the call graph to a fixpoint:
// a function acquires a fact when any statically resolvable call in its body
// (outside nested function literals, which run at another time) reaches a
// function holding that fact.
//
// Facts cross package boundaries by construction: functions are keyed by
// callgraph.Key, which is identical for the source-checked definition of a
// function and for the export-data view an importing package sees, so a
// single DB computed over the whole load universe answers for every caller.
package facts

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis/callgraph"
)

// Fact is a bitset of per-function summary facts.
type Fact uint8

const (
	SchedulesEvents Fact = 1 << iota
	RecordsToDB

	numFacts = 2
)

// String names the set, e.g. "schedulesEvents|recordsToDB".
func (f Fact) String() string {
	var parts []string
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
	derived map[string]Fact
	// witness[i][key] is the callee key through which fact bit i first
	// reached key, for reconstructing a call chain in diagnostics.
	witness [numFacts]map[string]string
}

// Compute builds the call graph over pkgs and propagates intrinsic facts
// from callee to caller until nothing changes. The result is deterministic
// for a given universe.
func Compute(pkgs []Source) *DB {
	g := callgraph.New()
	for _, p := range pkgs {
		g.AddPackage(p.Files, p.Info)
	}
	db := &DB{derived: make(map[string]Fact, len(g.Nodes))}
	for i := range db.witness {
		db.witness[i] = make(map[string]string)
	}
	keys := make([]string, 0, len(g.Nodes))
	for k := range g.Nodes {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// Facts only grow, so the sweeps stop. A witness is recorded when its
	// bit arrives, from a callee that already held it, so following
	// witnesses always ends at an intrinsic root.
	for changed := true; changed; {
		changed = false
		for _, key := range keys {
			for _, callee := range g.Nodes[key].Calls {
				add := (db.derived[callee] | intrinsic(callee)) &^ db.derived[key]
				if add == 0 {
					continue
				}
				db.derived[key] |= add
				for i := 0; i < numFacts; i++ {
					if add&(1<<i) != 0 {
						db.witness[i][key] = callee
					}
				}
				changed = true
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
	key := callgraph.Key(fn)
	return intrinsic(key) | db.derived[key]
}

// Chain reconstructs one call path by which fn acquired fact (its lowest
// bit, when fact holds several) — from fn through intermediate callees down
// to the intrinsic root — as a slice of short function names (e.g.
// ["flush", "store", "Database.Record"]). A function holding the fact
// intrinsically yields a one-element chain.
func (db *DB) Chain(fn *types.Func, fact Fact) []string {
	if fn == nil || fact == 0 {
		return nil
	}
	bit := 0
	for fact&(1<<bit) == 0 {
		bit++
	}
	key := callgraph.Key(fn)
	chain := []string{shortName(key)}
	for intrinsic(key)&(1<<bit) == 0 {
		next, ok := db.witness[bit][key]
		if !ok {
			break
		}
		chain = append(chain, shortName(next))
		key = next
	}
	return chain
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

// intrinsic returns the ground-truth facts carried by a function's
// signature itself, independent of its body. Matching is structural — the
// last element of the package path, receiver type name, method name — so it
// works identically for repro/internal/sim loaded from source, the same
// package seen through export data, a callee outside the load universe, and
// test fixtures that mirror the signatures.
func intrinsic(key string) Fact {
	pkgName, recv, name := splitKey(key)
	switch pkgName {
	case "sim":
		switch {
		case recv == "Kernel":
			switch name {
			case "At", "After", "AtArg", "AfterArg", "Every", "schedule", "Spawn":
				return SchedulesEvents
			}
		case recv == "ShardGroup" && (name == "Send" || name == "SendArg"):
			return SchedulesEvents
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

// splitKey decomposes a callgraph key into (package name, receiver type
// name, function name). The package path keeps only its last element, for
// intrinsic's structural scheme.
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
