package analysis

import (
	"fmt"
	"go/token"
	"io"
	"sort"

	"repro/internal/analysis/facts"
	"repro/internal/analysis/refs"
)

// SuppressCheckName is the pseudo-analyzer name under which the driver
// reports unused or unknown //lint:allow suppressions.
const SuppressCheckName = "suppress"

// Run computes interprocedural facts and the reference index over the whole
// universe, then applies every analyzer to every package and audits the
// package's //lint:allow comments: an entry whose key no analyzer declares
// is "unknown", and one no analyzer consulted (because no diagnostic occurs
// on its line any more) is "unused"; both are findings under
// SuppressCheckName. The diagnostics come back sorted by position. An
// analyzer error aborts the run.
func Run(pkgs []*Package, fset *token.FileSet, analyzers []*Analyzer) ([]Diagnostic, error) {
	srcs := make([]facts.Source, len(pkgs))
	refSrcs := make([]refs.Source, len(pkgs))
	for i, pkg := range pkgs {
		srcs[i] = facts.Source{Files: pkg.Files, Info: pkg.Info}
		refSrcs[i] = refs.Source{Files: pkg.Files, Info: pkg.Info, Pkg: pkg.Types}
	}
	db := facts.Compute(srcs)
	ix := refs.Compute(fset, refSrcs)

	knownKeys := make(map[string]bool)
	for _, a := range analyzers {
		for _, k := range a.Keys {
			knownKeys[k] = true
		}
	}

	var diags []Diagnostic
	for _, pkg := range pkgs {
		allows := buildAllowIndex(fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Facts:     db,
				Refs:      ix,
				Report:    func(d Diagnostic) { diags = append(diags, d) },
				allows:    allows,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
		for _, e := range allows.all {
			switch {
			case e.used:
			case !knownKeys[e.key]:
				diags = append(diags, Diagnostic{Pos: e.pos, Analyzer: SuppressCheckName,
					Message: fmt.Sprintf("//lint:allow %s: no registered analyzer knows this key; fix the key or delete the comment", e.key)})
			default:
				diags = append(diags, Diagnostic{Pos: e.pos, Analyzer: SuppressCheckName,
					Message: fmt.Sprintf("//lint:allow %s suppresses nothing: no %s diagnostic occurs on this line any more; delete the stale comment", e.key, e.key)})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}

// Print writes diagnostics in the conventional file:line:col form.
func Print(w io.Writer, fset *token.FileSet, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintf(w, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}
