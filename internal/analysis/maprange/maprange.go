// Package maprange flags map iteration whose body makes calls in
// simulation-facing packages.
//
// Go randomizes map iteration order on purpose. The experiment tables and
// the sharded kernel's bit-identity guarantee both rest on every observable
// effect happening in a deterministic order, so a `for range` over a map
// whose body schedules simulation events (Kernel.At/After/Every/Spawn,
// ShardGroup.Send), records measurements (core.Database.Record), or appends
// report-table rows (report.Table.AddRow/AddNote), directly or through any
// helper, silently reorders those effects on every run. That is exactly the
// class of nondeterminism the byte-identical-tables invariant exists to
// catch, surfacing here at its source instead of as a diffing experiment
// table three layers away.
//
// The rule is intraprocedural and deliberately over-approximate: the loop
// body may call only builtins (len, append, delete, …) and type
// conversions. Any other call — a helper, a method, a function value, a
// method through an interface — is flagged, whatever it reaches, so no
// call graph is needed and dynamic calls are not missed. Calls inside
// nested function literals are not the loop's effects: a stored closure
// runs later, in its caller's order, and scheduling a closure per key is
// already caught through the scheduling call itself. The sanctioned fix is
// the sorted-keys idiom:
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
// Iteration that is genuinely order-insensitive (e.g. effects proven
// commutative) opts out with `//lint:allow maporder <reason>`.
package maprange

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the maprange pass.
var Analyzer = &analysis.Analyzer{
	Name: "maprange",
	Doc:  "flag map iteration whose body calls anything but builtins and conversions",
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
			call := firstCall(pass.TypesInfo, rng.Body)
			if call == nil {
				return true
			}
			if pass.Allowed(rng.Pos(), "maporder") {
				return true
			}
			pass.Reportf(rng.Pos(), "map iteration order is random, but this loop body calls %s: range over sorted keys instead, or annotate //lint:allow maporder if the calls commute", types.ExprString(call.Fun))
			return true
		})
	}
	return nil
}

// firstCall returns the first call in body (in lexical order, outside
// nested function literals) that is neither a builtin nor a conversion.
func firstCall(info *types.Info, body *ast.BlockStmt) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if tv := info.Types[n.Fun]; !tv.IsBuiltin() && !tv.IsType() {
				found = n
				return false
			}
		}
		return true
	})
	return found
}
