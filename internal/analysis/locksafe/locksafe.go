// Package locksafe flags sync mutexes held across simulation yield points.
//
// Code running under the sim kernel is cooperatively scheduled: at most one
// Proc executes at a time, and control transfers only at explicit yield
// points (Proc.Sleep, Proc.Yield, Queue.Get, Kernel.Run/RunUntil, and the
// sharded group's ShardGroup.Run/RunUntil barriers). Holding
// a sync.Mutex across such a point is at best useless (no other Proc can
// run concurrently anyway) and at worst a deadlock: the parked Proc still
// owns the lock, and whichever goroutine next contends for it blocks an OS
// thread the cooperative scheduler needs — the whole simulation freezes.
//
// The pass performs a statement-order scan within each function body: after
// e.Lock()/e.RLock() on a sync.Mutex or sync.RWMutex (including embedded
// ones), any call that may reach a yield point before the matching
// e.Unlock()/e.RUnlock() is reported. Yield-point detection is
// interprocedural: the driver's facts database (see
// internal/analysis/facts) marks the sim kernel's parking/barrier methods
// intrinsically and propagates "mayYield" bottom-up through the call
// graph, so a helper that merely calls another helper that eventually
// parks the Proc is flagged too — the diagnostic names the call chain.
//
// A deferred Unlock keeps the mutex held for the rest of the body. Nested
// blocks (if/for/switch bodies) share the enclosing lock state; function
// literals are scanned independently, since they execute at some other
// time. The scan is linear — it does not model branches that unlock on one
// arm only — which is the conventional lint-grade approximation. Opt out
// with `//lint:allow lockyield <reason>`.
package locksafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/facts"
)

// Analyzer is the locksafe pass.
var Analyzer = &analysis.Analyzer{
	Name: "locksafe",
	Doc:  "flag sync mutexes held across calls that may transitively reach a sim yield point",
	Keys: []string{"lockyield"},
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				scanBlock(pass, body, make(map[string]token.Pos))
			}
			return true // keep descending: FuncLits get their own scan
		})
	}
	return nil
}

// scanBlock walks statements in order, tracking which mutexes are held.
func scanBlock(pass *analysis.Pass, block *ast.BlockStmt, held map[string]token.Pos) {
	for _, stmt := range block.List {
		scanStmt(pass, stmt, held)
	}
}

func scanStmt(pass *analysis.Pass, stmt ast.Stmt, held map[string]token.Pos) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if applyLockOp(pass, call, held) {
				return
			}
		}
		reportYields(pass, s, held)
	case *ast.DeferStmt:
		// `defer mu.Unlock()` keeps mu held for the rest of the body, so
		// it is deliberately NOT removed from held. A deferred Lock would
		// be bizarre; ignore it.
		if kind, _ := lockOp(pass, s.Call); kind == opUnlock {
			return
		}
		reportYields(pass, s, held)
	case *ast.BlockStmt:
		scanBlock(pass, s, held)
	case *ast.IfStmt:
		if s.Init != nil {
			scanStmt(pass, s.Init, held)
		}
		reportYields(pass, s.Cond, held)
		scanBlock(pass, s.Body, held)
		if s.Else != nil {
			scanStmt(pass, s.Else, held)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			scanStmt(pass, s.Init, held)
		}
		if s.Cond != nil {
			reportYields(pass, s.Cond, held)
		}
		scanBlock(pass, s.Body, held)
		if s.Post != nil {
			scanStmt(pass, s.Post, held)
		}
	case *ast.RangeStmt:
		reportYields(pass, s.X, held)
		scanBlock(pass, s.Body, held)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CaseClause); ok {
				for _, st := range cc.Body {
					scanStmt(pass, st, held)
				}
				return false
			}
			return true
		})
	default:
		reportYields(pass, stmt, held)
	}
}

type op int

const (
	opNone op = iota
	opLock
	opUnlock
)

// applyLockOp updates held when call is a Lock/Unlock on a sync mutex,
// reporting whether it was one.
func applyLockOp(pass *analysis.Pass, call *ast.CallExpr, held map[string]token.Pos) bool {
	kind, key := lockOp(pass, call)
	switch kind {
	case opLock:
		held[key] = call.Pos()
	case opUnlock:
		delete(held, key)
	default:
		return false
	}
	return true
}

// lockOp classifies a call as Lock/RLock or Unlock/RUnlock on a
// sync.Mutex/RWMutex (possibly embedded) and returns the receiver
// expression's printed form as the mutex identity.
func lockOp(pass *analysis.Pass, call *ast.CallExpr) (op, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return opNone, ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return opNone, ""
	}
	key := types.ExprString(sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		return opLock, key
	case "Unlock", "RUnlock":
		return opUnlock, key
	}
	return opNone, ""
}

// reportYields flags calls that may reach a sim yield point inside node
// while any mutex is held. Function literals are skipped: their bodies run
// at another time and are scanned as functions in their own right.
func reportYields(pass *analysis.Pass, node ast.Node, held map[string]token.Pos) {
	if len(held) == 0 || node == nil {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := callgraph.StaticCallee(pass.TypesInfo, call)
		if fn == nil || !mayYield(pass, fn) {
			return true
		}
		if pass.Allowed(call.Pos(), "lockyield") {
			return true
		}
		chain := yieldChain(pass, fn)
		if len(chain) <= 1 {
			pass.Reportf(call.Pos(), "sim yield point %s called while holding %s: the lock stays held across the scheduler (annotate //lint:allow lockyield if intended)", fn.Name(), heldNames(held))
		} else {
			pass.Reportf(call.Pos(), "call to %s may reach sim yield point %s (call path %s) while holding %s: the lock stays held across the scheduler (annotate //lint:allow lockyield if intended)", fn.Name(), chain[len(chain)-1], strings.Join(chain, " -> "), heldNames(held))
		}
		return true
	})
}

// mayYield consults the driver's interprocedural facts; a hand-built Pass
// without facts (old tests) degrades to intrinsic yield points only.
func mayYield(pass *analysis.Pass, fn *types.Func) bool {
	if pass.Facts != nil {
		return pass.Facts.Lookup(fn)&facts.MayYield != 0
	}
	return facts.Intrinsic(fn)&facts.MayYield != 0
}

// yieldChain names the call path from fn down to the intrinsic yield point,
// for the diagnostic.
func yieldChain(pass *analysis.Pass, fn *types.Func) []string {
	if pass.Facts == nil {
		return nil
	}
	return pass.Facts.Chain(fn, facts.MayYield)
}

func heldNames(held map[string]token.Pos) string {
	names := make([]string, 0, len(held))
	for k := range held {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
