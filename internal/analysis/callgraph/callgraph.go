// Package callgraph builds a static, name-keyed call graph over one or more
// type-checked packages, for interprocedural analyses.
//
// Nodes are named functions and methods (one per FuncDecl); edges are the
// statically resolvable calls lexically inside a declaration's body. Calls
// inside nested function literals are deliberately excluded from the
// enclosing declaration's edges: a closure executes at some other time (when
// the scheduler fires it, when a defer runs), so its callees say nothing
// about what happens during a call to the enclosing function. Dynamic calls
// — through interface methods or function-typed values — cannot be resolved
// without points-to analysis and produce no edge; passes built on the graph
// are therefore lint-grade underapproximations, never sources of false
// positives from infeasible paths. The one exception is a call through an
// unexported named interface, which gets an edge to each implementation in
// the interface's own package (see seamCallees).
//
// Functions are identified by Key, a string stable across how a package was
// loaded (from source or from gc export data), so facts attached to nodes
// survive package boundaries: "repro/internal/sim.NewKernel" for functions,
// "(*repro/internal/sim.Kernel).Run" for methods.
package callgraph

import (
	"go/ast"
	"go/types"
)

// Key canonically names fn across load boundaries. Generic instantiations
// collapse onto their origin, so Queue[int].Get and Queue[string].Get share
// one node.
func Key(fn *types.Func) string {
	return fn.Origin().FullName()
}

// Node is one named function or method and its resolved call edges.
type Node struct {
	Key string
	// Calls lists callee keys in first-call order, deduplicated. Callees
	// need not have nodes of their own (calls into packages outside the
	// graph's universe still produce edges).
	Calls []string
}

// Graph is a call graph across every package added to it.
type Graph struct {
	Nodes map[string]*Node
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{Nodes: make(map[string]*Node)}
}

// AddPackage scans one type-checked package, adding a node per function
// declaration with a body.
func (g *Graph) AddPackage(files []*ast.File, info *types.Info) {
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := g.node(Key(fn))
			seen := make(map[string]bool, len(node.Calls))
			for _, c := range node.Calls {
				seen[c] = true
			}
			scanBody(fd.Body, info, func(callee *types.Func) {
				k := Key(callee)
				if !seen[k] {
					seen[k] = true
					node.Calls = append(node.Calls, k)
				}
			})
		}
	}
}

func (g *Graph) node(key string) *Node {
	n := g.Nodes[key]
	if n == nil {
		n = &Node{Key: key}
		g.Nodes[key] = n
	}
	return n
}

// scanBody visits every call expression lexically inside body but outside
// nested function literals, reporting the ones that resolve to a static
// callee.
func scanBody(body *ast.BlockStmt, info *types.Info, emit func(*types.Func)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := StaticCallee(info, call); fn != nil {
			emit(fn)
		} else if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			// A method StaticCallee turned down is an interface's.
			if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
				seamCallees(fn, emit)
			}
		}
		return true
	})
}

// seamCallees resolves fn, a method of an unexported named interface, to
// the same method of every type in the interface's package that implements
// it. Nothing outside that package can name the interface to implement it,
// so its own types are the whole set — which makes this the one dynamic
// dispatch worth following. It is how facts cross a transport seam (snmp's
// conn, nttcp's link): the protocol engine receives and sleeps through the
// interface, and the simulator adapter behind it parks the proc.
func seamCallees(fn *types.Func, emit func(*types.Func)) {
	named, ok := fn.Type().(*types.Signature).Recv().Type().(*types.Named)
	if !ok || named.Obj().Exported() {
		return
	}
	scope := named.Obj().Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		t, ok := tn.Type().(*types.Named)
		if !ok || t.TypeParams().Len() > 0 || types.IsInterface(t) {
			continue
		}
		ptr := types.NewPointer(t)
		if !types.Implements(ptr, named.Underlying().(*types.Interface)) {
			continue
		}
		if m, ok := types.NewMethodSet(ptr).Lookup(fn.Pkg(), fn.Name()).Obj().(*types.Func); ok {
			emit(m)
		}
	}
}

// StaticCallee resolves the *types.Func a call expression statically invokes:
// a plain function, a method on a concrete receiver, or a method accessed
// through embedding. It returns nil for dynamic calls (interface-typed
// receivers, function values), conversions, and builtins.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if types.IsInterface(recv.Type()) {
			return nil // dynamic dispatch
		}
	}
	return fn
}
