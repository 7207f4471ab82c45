// Package maprange flags map iteration whose body feeds order-sensitive
// sinks in simulation-facing packages.
//
// Go randomizes map iteration order on purpose. The experiment tables and
// the sharded kernel's bit-identity guarantee both rest on every observable
// effect happening in a deterministic order, so a `for range` over a map
// whose body — directly or through any chain of helpers — schedules
// simulation events (Kernel.At/After/Every/Spawn, ShardGroup.Send), records
// measurements (core.Database.Record), or appends report-table rows
// (report.Table.AddRow/AddNote) silently reorders those effects on every
// run. That is exactly the class of nondeterminism the byte-identical-
// tables invariant exists to catch, surfacing here at its source instead of
// as a diffing experiment table three layers away.
//
// Reachability is interprocedural via the driver's facts database: the loop
// body's statically resolvable calls are checked for the schedulesEvents
// and recordsToDB summary facts. Calls inside nested function literals are
// not the loop's effects — a stored closure runs later, in its caller's
// order — and scheduling a closure per key is already caught through the
// scheduling call itself. The sanctioned fix is the sorted-keys idiom:
//
//	keys := make([]string, 0, len(m))
//	for k := range m { // body only collects: fine
//		keys = append(keys, k)
//	}
//	sort.Strings(keys)
//	for _, k := range keys { // slice range: not checked
//		schedule(m[k])
//	}
//
// which this pass accepts for free, since the map-ranging loop no longer
// reaches a sink. Iteration that is genuinely order-insensitive (e.g.
// summing, or effects proven commutative) opts out with
// `//lint:allow maporder <reason>`.
package maprange

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/facts"
)

// Analyzer is the maprange pass.
var Analyzer = &analysis.Analyzer{
	Name: "maprange",
	Doc:  "flag map iteration that schedules events or records results in map order",
	Keys: []string{"maporder"},
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !analysis.SimFacing(pass.Pkg.Name()) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			fn, f := firstSink(pass, rng.Body)
			if fn == nil {
				return true
			}
			if pass.Allowed(rng.Pos(), "maporder") {
				return true
			}
			// The call path down to the intrinsic sink, e.g. "flush -> Database.Record".
			chain := strings.Join(pass.Facts.Chain(fn, f), " -> ")
			pass.Reportf(rng.Pos(), "map iteration order is random, but this loop body reaches an order-sensitive sink (%s) via %s: sort the keys first, or annotate //lint:allow maporder if the effects commute", f, chain)
			return true
		})
	}
	return nil
}

// firstSink returns the first call in body (in lexical order, outside
// nested function literals) whose callee carries a fact, along with its
// facts: schedulesEvents and recordsToDB each mark an order-sensitive sink.
func firstSink(pass *analysis.Pass, body *ast.BlockStmt) (*types.Func, facts.Fact) {
	var foundFn *types.Func
	var foundFact facts.Fact
	ast.Inspect(body, func(n ast.Node) bool {
		if foundFn != nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := callgraph.StaticCallee(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		f := pass.Facts.Lookup(fn)
		if f == 0 {
			return true
		}
		foundFn, foundFact = fn, f
		return false
	})
	return foundFn, foundFact
}
