package main

import (
	"go/token"
	"path/filepath"
	"testing"
)

// TestTreeIsClean runs the suite over the whole repository, the root module
// and the nested bench/ module, as `make analyze` does, so `go test ./...`
// holds the lint gate too.
func TestTreeIsClean(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, diags, err := analyze(fset, filepath.Join("..", ".."), nil)
	if err != nil {
		t.Fatal(err)
	}
	bench := false
	for _, p := range pkgs {
		bench = bench || p.PkgPath == "repro/bench"
	}
	if !bench {
		t.Errorf("the nested bench module was not loaded (%d packages)", len(pkgs))
	}
	for _, d := range diags {
		t.Errorf("%s: %s: %s", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}
