// Command analyze runs the repository's custom static-analysis suite — the
// multichecker over internal/analysis passes — and exits non-zero when any
// finding survives the allowlist. `make analyze` runs it over ./... and
// `make ci` gates on it.
//
// Usage:
//
//	analyze [-run name,name] [-list] [-v] [-p n] [-json file] [packages]
//
// With no packages, ./... is analyzed. On the whole tree (no packages, or
// ./...) the nested bench/ module, which `go list ./...` does not enter, is
// loaded as a second root and analyzed with the rest: unusedexport judges a
// name by every caller in the program, and the benchmark's workloads are
// callers.
//
// -run restricts the suite to a comma-separated subset of analyzer names;
// -list prints the suite; -v prints per-analyzer wall time; -p bounds how
// many packages are analyzed concurrently (default GOMAXPROCS; output order
// is deterministic either way); -json writes a machine-readable diagnostics
// artifact (written even when the tree is clean, so CI always has something
// to upload).
//
// When the full suite runs, the driver additionally audits //lint:allow
// comments and reports stale or unknown-key suppressions under the
// pseudo-analyzer "suppress". A -run subset skips the audit: it cannot
// tell an unused suppression from one belonging to a pass that didn't run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/berencheck"
	"repro/internal/analysis/locksafe"
	"repro/internal/analysis/maprange"
	"repro/internal/analysis/noalloc"
	"repro/internal/analysis/simdeterminism"
	"repro/internal/analysis/timerstop"
	"repro/internal/analysis/unusedexport"
)

// suite is every registered pass, in report order.
var suite = []*analysis.Analyzer{
	simdeterminism.Analyzer,
	berencheck.Analyzer,
	timerstop.Analyzer,
	locksafe.Analyzer,
	maprange.Analyzer,
	noalloc.Analyzer,
	unusedexport.Analyzer,
}

func main() {
	runList := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	verbose := flag.Bool("v", false, "print per-analyzer wall time")
	parallel := flag.Int("p", 0, "packages analyzed concurrently (0 = GOMAXPROCS)")
	jsonPath := flag.String("json", "", "write a JSON diagnostics artifact to this file")
	flag.Parse()

	if *list {
		for _, a := range suite {
			fmt.Printf("%-16s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}

	analyzers := suite
	fullSuite := true
	if *runList != "" {
		fullSuite = false
		byName := make(map[string]*analysis.Analyzer, len(suite))
		for _, a := range suite {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*runList, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "analyze: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(2)
	}
	loadStart := time.Now()
	fset := token.NewFileSet()
	patterns := flag.Args()
	pkgs, err := analysis.Load(fset, cwd, patterns...)
	if wholeTree := len(patterns) == 0 || len(patterns) == 1 && patterns[0] == "./..."; err == nil && wholeTree {
		pkgs, err = loadNested(fset, filepath.Join(cwd, "bench"), pkgs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(2)
	}
	loadTime := time.Since(loadStart)

	diags, stats, err := analysis.Run(pkgs, fset, analyzers, analysis.Options{
		Parallel:          *parallel,
		CheckSuppressions: fullSuite,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(2)
	}

	if *verbose {
		fmt.Fprintf(os.Stderr, "analyze: %d package(s), load %s, facts %s, refs %s\n",
			stats.Packages, loadTime.Round(time.Millisecond), stats.FactsTime.Round(time.Millisecond), stats.RefsTime.Round(time.Millisecond))
		names := make([]string, 0, len(stats.AnalyzerTime))
		for name := range stats.AnalyzerTime {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return stats.AnalyzerTime[names[i]] > stats.AnalyzerTime[names[j]] })
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "analyze:   %-16s %s\n", name, stats.AnalyzerTime[name].Round(time.Millisecond))
		}
	}

	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, fset, diags, stats, loadTime, analyzers); err != nil {
			fmt.Fprintln(os.Stderr, "analyze:", err)
			os.Exit(2)
		}
	}

	analysis.Print(os.Stdout, fset, diags)
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "analyze: %d finding(s) in %d package(s)\n", len(diags), stats.Packages)
		os.Exit(1)
	}
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

// artifact is the schema of the -json diagnostics file CI uploads.
type artifact struct {
	Schema    string           `json:"schema"`
	Packages  int              `json:"packages"`
	Analyzers []string         `json:"analyzers"`
	Findings  []finding        `json:"findings"`
	TimingMS  map[string]int64 `json:"timing_ms"`
}

type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func writeJSON(path string, fset *token.FileSet, diags []analysis.Diagnostic, stats *analysis.Stats, loadTime time.Duration, analyzers []*analysis.Analyzer) error {
	art := artifact{
		Schema:   "repro/analyze/v1",
		Packages: stats.Packages,
		Findings: []finding{}, // never null in the artifact
		TimingMS: map[string]int64{
			"load":  loadTime.Milliseconds(),
			"facts": stats.FactsTime.Milliseconds(),
			"refs":  stats.RefsTime.Milliseconds(),
		},
	}
	for _, a := range analyzers {
		art.Analyzers = append(art.Analyzers, a.Name)
		art.TimingMS[a.Name] = stats.AnalyzerTime[a.Name].Milliseconds()
	}
	for _, d := range diags {
		p := fset.Position(d.Pos)
		art.Findings = append(art.Findings, finding{
			File: p.Filename, Line: p.Line, Col: p.Column,
			Analyzer: d.Analyzer, Message: d.Message,
		})
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
