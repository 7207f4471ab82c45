package analysis

import (
	"fmt"
	"go/token"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/analysis/facts"
	"repro/internal/analysis/refs"
)

// SuppressCheckName is the pseudo-analyzer name under which the driver
// reports unused or unknown //lint:allow suppressions.
const SuppressCheckName = "suppress"

// Options configures a driver run.
type Options struct {
	// Parallel bounds the number of packages analyzed concurrently;
	// <= 0 means GOMAXPROCS.
	Parallel int
	// CheckSuppressions audits //lint:allow comments after the analyzers
	// finish: an entry whose key no registered analyzer declares is
	// "unknown", and an entry no analyzer consulted (because no diagnostic
	// occurs on its line any more) is "unused". Both are reported as
	// findings under SuppressCheckName. Only meaningful when the full suite
	// runs — a filtered -run subset would see every other pass's
	// suppressions as unused.
	CheckSuppressions bool
}

// Stats reports where a driver run spent its time.
type Stats struct {
	// FactsTime is the interprocedural fact-computation pre-pass, RefsTime
	// the whole-program reference index.
	FactsTime time.Duration
	RefsTime  time.Duration
	// AnalyzerTime is total wall time per analyzer, summed across packages
	// (concurrent package runs each contribute their full duration).
	AnalyzerTime map[string]time.Duration
	// Packages is the number of packages analyzed.
	Packages int
}

// Run computes interprocedural facts and the reference index over the whole
// universe, then applies every analyzer to every package — packages in
// parallel, with deterministic output ordering — and returns the collected
// diagnostics sorted by position. An analyzer error aborts the run.
func Run(pkgs []*Package, fset *token.FileSet, analyzers []*Analyzer, opts Options) ([]Diagnostic, *Stats, error) {
	stats := &Stats{AnalyzerTime: make(map[string]time.Duration), Packages: len(pkgs)}

	factsStart := time.Now()
	srcs := make([]facts.Source, len(pkgs))
	for i, pkg := range pkgs {
		srcs[i] = facts.Source{Files: pkg.Files, Info: pkg.Info}
	}
	db := facts.Compute(srcs)
	stats.FactsTime = time.Since(factsStart)

	refsStart := time.Now()
	refSrcs := make([]refs.Source, len(pkgs))
	for i, pkg := range pkgs {
		refSrcs[i] = refs.Source{Files: pkg.Files, Info: pkg.Info, Pkg: pkg.Types}
	}
	ix := refs.Compute(fset, refSrcs)
	stats.RefsTime = time.Since(refsStart)

	knownKeys := make(map[string]bool)
	for _, a := range analyzers {
		for _, k := range a.Keys {
			knownKeys[k] = true
		}
	}

	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	if workers < 1 {
		workers = 1
	}

	perPkg := make([][]Diagnostic, len(pkgs))
	errs := make([]error, len(pkgs))
	var mu sync.Mutex // guards stats.AnalyzerTime
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				perPkg[i], errs[i] = runPackage(pkgs[i], fset, analyzers, db, ix, opts, knownKeys, func(name string, d time.Duration) {
					mu.Lock()
					stats.AnalyzerTime[name] += d
					mu.Unlock()
				})
			}
		}()
	}
	for i := range pkgs {
		work <- i
	}
	close(work)
	wg.Wait()

	var diags []Diagnostic
	for i, err := range errs {
		if err != nil {
			return nil, stats, err
		}
		diags = append(diags, perPkg[i]...)
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
	return diags, stats, nil
}

// runPackage applies the analyzers to one package (serially — concurrency
// is across packages) and then audits the package's suppressions.
func runPackage(pkg *Package, fset *token.FileSet, analyzers []*Analyzer, db *facts.DB, ix *refs.Index, opts Options, knownKeys map[string]bool, timing func(string, time.Duration)) ([]Diagnostic, error) {
	var diags []Diagnostic
	allows := BuildAllowIndex(fset, pkg.Files)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			PkgPath:   pkg.PkgPath,
			Dir:       pkg.Dir,
			Facts:     db,
			Refs:      ix,
			Report:    func(d Diagnostic) { diags = append(diags, d) },
			allows:    allows,
		}
		start := time.Now()
		err := a.Run(pass)
		timing(a.Name, time.Since(start))
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.PkgPath, err)
		}
	}
	if opts.CheckSuppressions {
		for _, e := range allows.Unused() {
			if !knownKeys[e.Key] {
				diags = append(diags, Diagnostic{Pos: e.Pos, Analyzer: SuppressCheckName,
					Message: fmt.Sprintf("//lint:allow %s: no registered analyzer knows this key; fix the key or delete the comment", e.Key)})
				continue
			}
			diags = append(diags, Diagnostic{Pos: e.Pos, Analyzer: SuppressCheckName,
				Message: fmt.Sprintf("//lint:allow %s suppresses nothing: no %s diagnostic occurs on this line any more; delete the stale comment", e.Key, e.Key)})
		}
	}
	return diags, nil
}

// Print writes diagnostics in the conventional file:line:col form.
func Print(w io.Writer, fset *token.FileSet, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintf(w, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}
