// Package berencheck enforces error discipline around the hand-rolled
// protocol codecs.
//
// SNMP rides unreliable transports and our BER codec is hand-written, so a
// dropped decode error is a silently corrupted measurement. This pass flags
// any call that discards an error returned by a function or method of
// packages asn1ber, snmp, or mib (the codec and protocol layers).
//
// "Discards" means the call appears as a bare statement (including go and
// defer) or the error result is assigned to the blank identifier. Lines
// where ignoring the error is genuinely correct opt out with
// `//lint:allow droperr <reason>`.
package berencheck

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the berencheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "berencheck",
	Doc:  "flag dropped errors from the asn1ber/snmp/mib codecs",
	Keys: []string{"droperr"},
	Run:  run,
}

// codecPackages are checked in full; every error they return is load-bearing.
var codecPackages = map[string]bool{"asn1ber": true, "snmp": true, "mib": true}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, ok := stmt.X.(*ast.CallExpr); ok {
					checkDiscarded(pass, call)
				}
			case *ast.GoStmt:
				checkDiscarded(pass, stmt.Call)
			case *ast.DeferStmt:
				checkDiscarded(pass, stmt.Call)
			case *ast.AssignStmt:
				checkBlankAssign(pass, stmt)
			}
			return true
		})
	}
	return nil
}

// checkDiscarded flags a call statement whose results include an error.
func checkDiscarded(pass *analysis.Pass, call *ast.CallExpr) {
	fn := target(pass, call)
	if fn == nil {
		return
	}
	if pos := errResult(fn); pos >= 0 && !pass.Allowed(call.Pos(), "droperr") {
		pass.Reportf(call.Pos(), "error returned by %s is discarded; handle it or annotate //lint:allow droperr", qualified(fn))
	}
}

// checkBlankAssign flags `x, _ := f()` where the blank slot is f's error.
func checkBlankAssign(pass *analysis.Pass, stmt *ast.AssignStmt) {
	// Only the multi-value form `a, b, ... := f()` maps result positions
	// onto LHS positions.
	if len(stmt.Rhs) != 1 || len(stmt.Lhs) < 2 {
		// `_ = f()` with a single-result error function:
		if len(stmt.Rhs) == 1 && len(stmt.Lhs) == 1 && isBlank(stmt.Lhs[0]) {
			if call, ok := stmt.Rhs[0].(*ast.CallExpr); ok {
				checkDiscarded(pass, call)
			}
		}
		return
	}
	call, ok := stmt.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	fn := target(pass, call)
	if fn == nil {
		return
	}
	pos := errResult(fn)
	if pos < 0 || pos >= len(stmt.Lhs) || !isBlank(stmt.Lhs[pos]) {
		return
	}
	if !pass.Allowed(stmt.Pos(), "droperr") {
		pass.Reportf(stmt.Lhs[pos].Pos(), "error returned by %s is assigned to _; handle it or annotate //lint:allow droperr", qualified(fn))
	}
}

// target resolves the called function and reports it only when it belongs
// to a checked package/path.
func target(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if codecPackages[fn.Pkg().Name()] {
		return fn
	}
	return nil
}

// errResult returns the result index holding fn's error, or -1. Only the
// conventional trailing-error shape is considered.
func errResult(fn *types.Func) int {
	results := fn.Type().(*types.Signature).Results()
	if results.Len() == 0 {
		return -1
	}
	last := results.At(results.Len() - 1)
	if types.Identical(last.Type(), types.Universe.Lookup("error").Type()) {
		return results.Len() - 1
	}
	return -1
}

func qualified(fn *types.Func) string { return fn.Pkg().Name() + "." + fn.Name() }

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
