// Package timerstop flags periodic sim timers whose handle is discarded.
//
// sim.Kernel.Every returns a sim.Timer handle that is the only way to stop
// the tick; discarding it creates a timer that fires forever. That was the
// PR 1 bug class: an un-stoppable Every keeps the event queue non-empty, so
// Kernel.Run never drains and any later phase of the run still pays for the
// abandoned ticker. One-shot At/After timers (and their arg-carrying forms
// AtArg/AfterArg) fire once and are routinely fire-and-forget, so those
// names are exempt; every other function that
// returns a sim.Timer — Every itself, and wrappers like the senescence
// watchdog (DirectorBase.StartSenescenceWatchdog) or a breaker's probe
// ticker — hands ownership of a periodic timer to the caller, and a
// discarded result is flagged.
//
// A deliberately process-lifetime ticker opts out with
// `//lint:allow leaktimer <reason>`.
package timerstop

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the timerstop pass.
var Analyzer = &analysis.Analyzer{
	Name: "timerstop",
	Doc:  "flag sim.Every calls whose Timer handle is discarded",
	Keys: []string{"leaktimer"},
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, ok := stmt.X.(*ast.CallExpr); ok {
					check(pass, call)
				}
			case *ast.AssignStmt:
				// `_ = k.Every(...)` and `_, x := ...` blanks.
				if len(stmt.Rhs) == 1 && len(stmt.Lhs) == 1 {
					if id, ok := stmt.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
						if call, ok := stmt.Rhs[0].(*ast.CallExpr); ok {
							check(pass, call)
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

func check(pass *analysis.Pass, call *ast.CallExpr) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || oneShot[fn.Name()] || !returnsSimTimer(fn) {
		return
	}
	if !pass.Allowed(call.Pos(), "leaktimer") {
		pass.Reportf(call.Pos(), "Timer returned by %s is discarded: the periodic timer can never be stopped; keep the handle and Stop it (or annotate //lint:allow leaktimer)", fn.Name())
	}
}

// oneShot names the kernel's fire-once scheduling calls, whose Timer
// handle is legitimately fire-and-forget.
var oneShot = map[string]bool{"At": true, "After": true, "AtArg": true, "AfterArg": true}

// returnsSimTimer reports whether fn's single result is a named type Timer
// from a package named sim.
func returnsSimTimer(fn *types.Func) bool {
	results := fn.Type().(*types.Signature).Results()
	if results.Len() != 1 {
		return false
	}
	named, ok := results.At(0).Type().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Timer" && obj.Pkg() != nil && obj.Pkg().Name() == "sim"
}
