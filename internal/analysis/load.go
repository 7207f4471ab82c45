package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Name    string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Standard   bool
	Export     string
	GoFiles    []string
	CgoFiles   []string
}

// Load builds the analysis view of the packages matching patterns, resolving
// relative patterns against dir, and parses them into fset. One `go list`
// sees one module, so a tree with a nested module (bench/) takes one Load per
// root; sharing fset lets the driver treat the union as one program.
//
// It works fully offline: `go list -deps -export` compiles every dependency
// into the build cache and reports the export-data files, and each target
// package is then parsed from source and type-checked against that export
// data — the same scheme `go vet` uses.
//
// Only non-test files are loaded; test files may freely use wall clocks and
// drop errors. Packages that fail to compile abort the load with the
// toolchain's error.
func Load(fset *token.FileSet, dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-export",
		"-json=ImportPath,Name,Dir,Standard,Export,GoFiles,CgoFiles"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard {
			targets = append(targets, p)
		}
	}

	imp := ExportImporter(fset, exports)
	var pkgs []*Package
	for _, t := range targets {
		if len(t.CgoFiles) > 0 {
			// cgo packages need the cgo-generated sources to type-check;
			// analyzing the raw files would produce spurious errors.
			continue
		}
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			continue
		}
		info := NewInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", t.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			PkgPath: t.ImportPath,
			Name:    t.Name,
			Files:   files,
			Types:   tpkg,
			Info:    info,
		})
	}
	return pkgs, nil
}

// NewInfo returns a types.Info with every map analyzers rely on allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// ExportImporter returns a types importer that reads gc export data from
// the files named in exports (import path -> export-data file).
func ExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// StdExports resolves export-data files for the given standard-library
// import paths (plus transitive dependencies) by compiling them into the
// build cache. Used by the analysistest harness, whose fake packages import
// real standard-library packages.
func StdExports(paths ...string) (map[string]string, error) {
	if len(paths) == 0 {
		return map[string]string{}, nil
	}
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Export"}, paths...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", paths, err, stderr.String())
	}
	exports := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}
