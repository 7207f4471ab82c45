// Package refs computes the whole-program reference index the unusedexport
// pass consults: for every declaration — func, method, type, const, var,
// struct field — whether any loaded file mentions it from outside its own
// declaration. The loader never reads _test.go files, so "mentioned" means
// "mentioned by something a command, example or benchmark builds".
//
// Declarations are keyed by name and source line ("file:line:name" — export
// data keeps no column). A package that imports another sees it through gc
// export data, whose objects are distinct from the source-checked ones but
// carry the same positions, so one index answers for every load root: the
// root module and the nested bench/ module both resolve core.Database to the
// identifier in internal/core/database.go.
//
// Two kinds of reference leave no identifier behind and are added
// explicitly: an unkeyed composite literal uses every field of its struct,
// and a concrete method reached only through an interface (m.Start() on a
// core.Monitor, String() through fmt) is used by whichever type satisfies
// that interface. Interfaces are every interface type written in a loaded
// file plus every named interface the loaded packages' direct imports
// export (error, fmt.Stringer, sort.Interface, io.Writer, ...); method
// signatures are compared as package-path-qualified strings, which are equal
// across the source and export-data views where type identity is not.
package refs

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Source is one type-checked package.
type Source struct {
	Files []*ast.File
	Info  *types.Info
	Pkg   *types.Package
}

// Index is the set of declarations referenced somewhere in the universe.
type Index struct {
	fset *token.FileSet
	used map[string]bool
}

// Used reports whether obj is referenced outside its own declaration.
func (ix *Index) Used(obj types.Object) bool {
	return ix.used[ix.key(obj)]
}

func (ix *Index) key(obj types.Object) string {
	p := ix.fset.Position(obj.Pos())
	return p.Filename + ":" + strconv.Itoa(p.Line) + ":" + obj.Name()
}

// Compute builds the index over every package of every load root. All
// sources must have been parsed into fset.
func Compute(fset *token.FileSet, srcs []Source) *Index {
	ix := &Index{fset: fset, used: make(map[string]bool)}
	for _, src := range srcs {
		for _, f := range src.Files {
			for _, decl := range f.Decls {
				if d, ok := decl.(*ast.GenDecl); ok {
					for _, spec := range d.Specs {
						ix.scan(spec, src.Info)
					}
				} else {
					ix.scan(decl, src.Info)
				}
			}
		}
	}
	ix.markInterfaceMethods(srcs)
	return ix
}

// selfOf is what a declaration's own mentions do not count towards: the
// names it declares (so recursion is not a use) and, for a method, its
// receiver's type — a type whose only mentions are its own methods'
// receivers and bodies is unused.
func selfOf(decl ast.Node, info *types.Info) map[types.Object]bool {
	self := make(map[types.Object]bool)
	switch d := decl.(type) {
	case *ast.FuncDecl:
		self[info.Defs[d.Name]] = true
		if d.Recv != nil && len(d.Recv.List) == 1 {
			t := info.TypeOf(d.Recv.List[0].Type)
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				self[named.Obj()] = true
			}
		}
	case *ast.TypeSpec:
		self[info.Defs[d.Name]] = true
	case *ast.ValueSpec:
		for _, name := range d.Names {
			self[info.Defs[name]] = true
		}
	}
	return self
}

// scan marks every object mentioned under decl (a FuncDecl or one Spec)
// except its own.
func (ix *Index) scan(decl ast.Node, info *types.Info) {
	self := selfOf(decl, info)
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil && obj.Pkg() != nil && !self[obj] {
				ix.used[ix.key(obj)] = true
			}
		case *ast.CompositeLit:
			// T{a, b} names no field but breaks if one is deleted.
			if len(n.Elts) == 0 {
				break
			}
			if _, keyed := n.Elts[0].(*ast.KeyValueExpr); keyed {
				break
			}
			if st, ok := info.TypeOf(n).Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					ix.used[ix.key(st.Field(i))] = true
				}
			}
		}
		return true
	})
}

// iface is an interface reduced to method name -> qualified signature.
type iface map[string]string

// sigString renders a method's parameter and result types, package-path
// qualified and without the parameter names that types.TypeString keeps.
func sigString(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), (*types.Package).Path))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

func newIface(t *types.Interface) iface {
	m := make(iface, t.NumMethods())
	for i := 0; i < t.NumMethods(); i++ {
		fn := t.Method(i)
		m[fn.Name()] = sigString(fn)
	}
	return m
}

// markInterfaceMethods marks, for every named type declared in the
// universe and every interface it satisfies, the concrete methods (promoted
// ones included) that satisfy it.
func (ix *Index) markInterfaceMethods(srcs []Source) {
	// seen starts as the loaded packages, whose interfaces the source walk
	// below finds, and grows by each imported package harvested once.
	seen := make(map[string]bool, len(srcs))
	for _, src := range srcs {
		seen[src.Pkg.Path()] = true
	}
	ifaces := []iface{newIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))}
	for _, src := range srcs {
		for _, f := range src.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if t, ok := src.Info.TypeOf(it).(*types.Interface); ok && t.NumMethods() > 0 {
						ifaces = append(ifaces, newIface(t))
					}
				}
				return true
			})
		}
		for _, imp := range src.Pkg.Imports() {
			if seen[imp.Path()] {
				continue
			}
			seen[imp.Path()] = true
			scope := imp.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				if t, ok := tn.Type().Underlying().(*types.Interface); ok && t.NumMethods() > 0 {
					ifaces = append(ifaces, newIface(t))
				}
			}
		}
	}

	for _, src := range srcs {
		scope := src.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(tn.Type()))
			if ms.Len() == 0 {
				continue
			}
			methods := make(map[string]types.Object, ms.Len())
			sigs := make(iface, ms.Len())
			for i := 0; i < ms.Len(); i++ {
				fn := ms.At(i).Obj().(*types.Func)
				methods[fn.Name()] = fn
				sigs[fn.Name()] = sigString(fn)
			}
			for _, want := range ifaces {
				if !satisfies(sigs, want) {
					continue
				}
				for name := range want {
					ix.used[ix.key(methods[name])] = true
				}
			}
		}
	}
}

func satisfies(have, want iface) bool {
	for name, sig := range want {
		if have[name] != sig {
			return false
		}
	}
	return true
}
