// Package unusedexport reports declarations nothing runs: every
// package-level func, method, type, const, var and struct field that no
// non-test file references from outside its own declaration. Exported names
// are the point — the compiler and go vet cannot see that nothing imports
// them — but unexported ones are checked too, because deleting an exported
// name routinely orphans the helper behind it and vet is blind to unused
// package-level declarations.
//
// The judgement is whole-program: the driver's reference index (see the refs
// subpackage) covers every package of every load root, so a name survives if
// any command, example or benchmark workload reaches it, and dies if only
// _test.go files do. For that reason the pass is only meaningful when the
// whole tree is loaded (`./...`, the default); on a narrower pattern it
// reports names whose callers were simply not loaded.
//
// Not reported: anything in package main or in a test-support package (name
// ending in "test", after net/http/httptest — its callers are tests by
// design); a method that satisfies an interface (module-declared,
// anonymous, or exported by an imported package); a struct field with an
// encoding tag, or an embedded one; the blank identifier and init. A field
// that is only ever assigned counts as referenced. The pass does no
// reachability of its own — a helper used only by a dead function is
// reported on the next run, after the function is deleted — so a clean-up
// runs it to a fixpoint.
//
// Suppress with `//lint:allow unusedexport <reason>` on the declaration's
// line or the line above; on a parenthesised const, var or type block the
// comment above the keyword covers every member.
package unusedexport

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the unusedexport pass.
var Analyzer = &analysis.Analyzer{
	Name: "unusedexport",
	Doc: `report declarations no non-test file references

Flags package-level funcs, methods, types, consts, vars and struct fields
that nothing outside their own declaration mentions in any load root.
Methods satisfying an interface, tagged or embedded fields, package main and
test-support packages (*test) are exempt. Suppress with
//lint:allow unusedexport <reason>.`,
	Keys: []string{"unusedexport"},
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if name := pass.Pkg.Name(); name == "main" || strings.HasSuffix(name, "test") {
		return nil
	}
	// check judges one declared name; owner qualifies a field with its
	// struct's name and block is the enclosing parenthesised declaration.
	check := func(kind, owner string, id *ast.Ident, block token.Pos) {
		obj := pass.TypesInfo.Defs[id]
		if obj == nil || id.Name == "_" || pass.Refs.Used(obj) {
			return
		}
		if pass.Allowed(id.Pos(), "unusedexport") || block.IsValid() && pass.Allowed(block, "unusedexport") {
			return
		}
		pass.Reportf(id.Pos(), "%s %s.%s%s is used by no non-test file; delete it", kind, pass.Pkg.Name(), owner, id.Name)
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				switch {
				case d.Recv != nil:
					check("method", receiverName(d.Recv.List[0].Type)+".", d.Name, token.NoPos)
				case d.Name.Name != "init":
					check("func", "", d.Name, token.NoPos)
				}
			case *ast.GenDecl:
				block := token.NoPos
				if d.Lparen.IsValid() {
					block = d.Pos()
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						check("type", "", s.Name, block)
						// The named, untagged fields of every struct type
						// written under the declaration (ast.Field also
						// spells parameters and interface methods).
						ast.Inspect(s.Type, func(n ast.Node) bool {
							if field, ok := n.(*ast.Field); ok && field.Tag == nil {
								for _, name := range field.Names {
									if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok && v.IsField() {
										check("field", s.Name.Name+".", name, token.NoPos)
									}
								}
							}
							return true
						})
					case *ast.ValueSpec:
						for _, name := range s.Names {
							check(d.Tok.String(), "", name, block)
						}
					}
				}
			}
		}
	}
	return nil
}

// receiverName is the receiver's type name, without pointer or type
// parameters.
func receiverName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
