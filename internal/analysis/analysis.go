// Package analysis is a self-contained static-analysis framework modeled on
// golang.org/x/tools/go/analysis, built only on the standard library so the
// repository carries no external dependencies. It provides the Analyzer /
// Pass / Diagnostic vocabulary, a package loader that type-checks the module
// offline using the toolchain's export data (see load.go), and a driver that
// runs a suite of analyzers over the loaded packages (see run.go).
//
// The project-specific passes live in subpackages (simdeterminism,
// berencheck, timerstop, maprange, unusedexport) and are wired together by
// cmd/analyze, which `make analyze` and `make ci` run over the whole
// repository — the root module and the nested bench/ module, one Load each
// into a shared file set.
//
// # Whole-program references
//
// Before any pass runs, the driver computes one reference index over every
// loaded package (see the refs subpackage): which declarations some non-test
// file mentions from outside themselves, with interface satisfaction counted
// as a mention of the satisfying methods. unusedexport reports what the index
// lacks, via Pass.Refs.Used.
//
// # Suppressing a finding
//
// Every analyzer honours a line-scoped allowlist comment:
//
//	//lint:allow <key> [reason]
//
// A comment that shares its line with code covers that line only; a comment
// alone on its line covers the line below. Keys are per-analyzer
// ("wallclock", "globalrand", "hostcpu", "mutex", "droperr", "leaktimer",
// "maporder", "unusedexport"); the reason text is free-form but strongly
// encouraged. The simdeterminism pass additionally exempts whole
// real-network files by basename: real.go and *_real.go are never
// simulation-driven.
//
// Suppressions are themselves checked: the driver flags any //lint:allow
// comment that no analyzer consulted — either its key is unknown to every
// registered pass, or no diagnostic occurs on its line any more — so stale
// suppressions rot out of the tree instead of accumulating (see Run).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"repro/internal/analysis/refs"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics. It must be a valid Go
	// identifier.
	Name string
	// Doc is the help text: first line is a one-line summary.
	Doc string
	// Keys lists the //lint:allow suppression keys this pass consults, for
	// the driver's unused-suppression check.
	Keys []string
	// Run applies the pass to one package and reports findings via
	// pass.Report / pass.Reportf.
	Run func(*Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// Pass provides one analyzer run with a single type-checked package and a
// sink for its diagnostics. Analyzers must not retain the Pass after Run
// returns.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Refs answers whether any loaded file, in any load root, references a
	// declaration from outside it. The driver computes it once over the
	// whole load universe.
	Refs *refs.Index

	// Report delivers one finding. The driver fills it in.
	Report func(Diagnostic)

	// allows indexes the package's //lint:allow comments, shared between
	// all analyzers running on the package so that suppression usage can be
	// audited afterwards.
	allows *allowIndex
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Filename returns the basename of the file containing pos.
func (p *Pass) Filename(pos token.Pos) string {
	return filepath.Base(p.Fset.Position(pos).Filename)
}

// Allowed reports whether a `//lint:allow <key>` comment covers pos: a
// trailing comment on the flagged line, or a comment alone on the line
// directly above it. Consulting a suppression marks it used for the
// driver's stale-suppression audit.
func (p *Pass) Allowed(pos token.Pos, key string) bool {
	return p.allows.allowed(p.Fset, pos, key)
}

// SimFacing reports whether pkgName names a package whose code runs under
// the simulation kernel — the scope of the simdeterminism and maprange
// passes. nttcp and snmp appear even though they have a real-UDP layer:
// their real.go files are exempted by name.
func SimFacing(pkgName string) bool { return simPackages[pkgName] }

var simPackages = map[string]bool{
	"sim": true, "netsim": true, "rtds": true, "hifi": true, "cots": true,
	"hybrid": true, "experiments": true, "chaos": true, "rmon": true,
	"manager": true, "flowmeter": true, "rstream": true, "topo": true,
	"vclock": true, "mib": true, "snmp": true, "nttcp": true, "core": true,
	"metrics": true, "report": true, "integration": true, "resilience": true,
	"telemetry": true, "sketch": true, "director": true,
}

// allowEntry is one //lint:allow comment: its key, position, and whether
// any analyzer consulted it.
type allowEntry struct {
	key  string
	pos  token.Pos
	used bool
}

// allowIndex indexes a package's //lint:allow comments by the source line
// each covers and records which entries a matching check consulted.
type allowIndex struct {
	byLine map[string][]*allowEntry // "file:line" -> entries covering it
	all    []*allowEntry            // in file/position order
}

// buildAllowIndex scans the files' comments for //lint:allow markers.
func buildAllowIndex(fset *token.FileSet, files []*ast.File) *allowIndex {
	ix := &allowIndex{byLine: make(map[string][]*allowEntry)}
	for _, f := range files {
		var code map[int]bool // lines holding code, computed on first need
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "lint:allow") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "lint:allow"))
				if len(fields) == 0 {
					continue
				}
				if code == nil {
					code = codeLines(fset, f)
				}
				cp := fset.Position(c.Pos())
				e := &allowEntry{key: fields[0], pos: c.Pos()}
				ix.all = append(ix.all, e)
				line := cp.Line
				if !code[line] {
					line++ // alone on its line: covers the next one
				}
				k := fmt.Sprintf("%s:%d", cp.Filename, line)
				ix.byLine[k] = append(ix.byLine[k], e)
			}
		}
	}
	return ix
}

// codeLines returns the lines of f on which some syntax node other than a
// comment starts or ends. Every line of gofmt'ed code has one.
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.CommentGroup:
			return false
		}
		lines[fset.Position(n.Pos()).Line] = true
		lines[fset.Position(n.End()).Line] = true
		return true
	})
	return lines
}

// allowed reports whether an entry with key covers pos, marking it used.
func (ix *allowIndex) allowed(fset *token.FileSet, pos token.Pos, key string) bool {
	pp := fset.Position(pos)
	for _, e := range ix.byLine[fmt.Sprintf("%s:%d", pp.Filename, pp.Line)] {
		if e.key == key {
			e.used = true
			return true
		}
	}
	return false
}
