// Command analyze runs the repository's custom static-analysis suite — the
// multichecker over internal/analysis passes — and exits non-zero when any
// finding survives the allowlist. `make analyze` runs it over ./... and
// `make ci` gates on it.
//
// Usage:
//
//	analyze [packages]
//
// With no packages, ./... is analyzed. On the whole tree (no packages, or
// ./...) the nested bench/ module, which `go list ./...` does not enter, is
// loaded as a second root and analyzed with the rest: unusedexport judges a
// name by every caller in the program, and the benchmark's workloads are
// callers.
//
// The driver also audits //lint:allow comments and reports stale or
// unknown-key suppressions under the pseudo-analyzer "suppress".
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/analysis/berencheck"
	"repro/internal/analysis/maprange"
	"repro/internal/analysis/simdeterminism"
	"repro/internal/analysis/timerstop"
	"repro/internal/analysis/unusedexport"
)

// suite is every registered pass, in report order.
var suite = []*analysis.Analyzer{
	simdeterminism.Analyzer,
	berencheck.Analyzer,
	timerstop.Analyzer,
	maprange.Analyzer,
	unusedexport.Analyzer,
}

func main() {
	flag.Parse()
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(2)
	}
	fset := token.NewFileSet()
	pkgs, diags, err := analyze(fset, cwd, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(2)
	}
	analysis.Print(os.Stdout, fset, diags)
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "analyze: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

// analyze loads patterns from the module rooted at dir, plus the nested
// bench/ module on a whole-tree run, and runs suite over the union. It
// returns the packages analyzed and their findings.
func analyze(fset *token.FileSet, dir string, patterns []string) ([]*analysis.Package, []analysis.Diagnostic, error) {
	pkgs, err := analysis.Load(fset, dir, patterns...)
	if wholeTree := len(patterns) == 0 || len(patterns) == 1 && patterns[0] == "./..."; err == nil && wholeTree {
		pkgs, err = loadNested(fset, filepath.Join(dir, "bench"), pkgs)
	}
	if err != nil {
		return nil, nil, err
	}
	diags, err := analysis.Run(pkgs, fset, suite)
	return pkgs, diags, err
}

// loadNested loads the module rooted at dir, if there is one, and appends
// the packages the first root did not already supply (the nested module
// depends on the outer one, so most of its load is a second view of the same
// source).
func loadNested(fset *token.FileSet, dir string, pkgs []*analysis.Package) ([]*analysis.Package, error) {
	if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
		return pkgs, nil
	}
	nested, err := analysis.Load(fset, dir, "./...")
	if err != nil {
		return nil, err
	}
	have := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		have[p.PkgPath] = true
	}
	for _, p := range nested {
		if !have[p.PkgPath] {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}
