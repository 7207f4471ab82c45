// Command experiments regenerates the paper's evaluation tables (E1–E16 and
// A1–A3 in DESIGN.md). With no arguments it runs everything; pass experiment
// ids (e.g. "E1 E5") to run a subset, -quick for shorter virtual runs, and
// -markdown for EXPERIMENTS.md-ready output. Experiments run concurrently
// (-j workers, one per CPU by default); each owns an independent simulation
// kernel, so output is printed in experiment order and is byte-identical at
// any worker count.
//
//	experiments -quick -j 1 -cpuprofile exp.prof E5 E9 A3   # the Get-under-load, Walk and BulkWalk shapes, profiled
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
	"repro/internal/results"
	"repro/internal/telemetry"
)

func main() {
	quick := flag.Bool("quick", false, "shorter virtual runs")
	markdown := flag.Bool("markdown", false, "emit markdown tables")
	list := flag.Bool("list", false, "list experiments and exit")
	workers := flag.Int("j", runtime.NumCPU(), "experiments to run concurrently")
	shards := flag.Int("shards", 0, "run each experiment's kernel as shard 0 of an n-shard group (0 = plain kernel); tables are byte-identical at any value")
	telem := flag.String("telemetry", "", "instead of tables, run the instrumented chaos scenario and dump its self-telemetry (text | json)")
	resultsPath := flag.String("results", "", "append schema-versioned JSONL result envelopes to this file (one record per table row, or per sample batch with -scenario)")
	scenario := flag.String("scenario", "", "instead of tables, run the named comparison scenario and stream its result envelopes to -results (see -list)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
	flag.Parse()

	experiments.SetShards(*shards)

	if *scenario != "" {
		if err := runScenario(*scenario, *quick, *shards, *resultsPath); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
		return
	}

	if *telem != "" {
		reg, tracer := experiments.CollectTelemetry(*quick)
		if err := exportTelemetry(os.Stdout, *telem, reg, tracer); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
		return
	}

	all := experiments.All()
	if *list {
		for _, e := range all {
			fmt.Printf("%-4s %s\n", e.ID, e.Name)
		}
		for _, s := range experiments.Scenarios() {
			fmt.Printf("scenario %-16s %s\n", s.Name, s.Desc)
		}
		return
	}
	selected := all
	if flag.NArg() > 0 {
		selected = nil
		for _, id := range flag.Args() {
			e, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}
	// Effective parallelism is capped by the scheduler as well as the
	// worker pool: on a 1-CPU container -j 8 still runs serially, which
	// would otherwise silently flatten any wall-clock speedup comparison.
	maxprocs := runtime.GOMAXPROCS(0)
	effective := *workers
	if effective < 1 {
		effective = 1
	}
	if effective > len(selected) {
		effective = len(selected)
	}
	capped := ""
	if maxprocs < effective {
		effective = maxprocs
		capped = fmt.Sprintf(" (capped by GOMAXPROCS=%d)", maxprocs)
	}
	fmt.Fprintf(os.Stderr, "[run: %d experiment(s), -j %d, -shards %d, GOMAXPROCS %d, effective parallelism %d%s]\n",
		len(selected), *workers, *shards, maxprocs, effective, capped)
	var resW *results.Writer
	if *resultsPath != "" {
		f, err := os.Create(*resultsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		resW = results.NewWriter(f, "suite", *shards, runMeta())
	}
	stopProfile := profileCPU(*cpuProfile)
	ran := experiments.RunAll(selected, *quick, *workers)
	stopProfile()
	for i, r := range ran {
		if resW != nil {
			// Tables convert to envelopes after the fact, so recording can
			// never perturb an experiment's outcome.
			for _, rec := range results.FromTable(r.Table) {
				if err := resW.Write(rec); err != nil {
					fmt.Fprintf(os.Stderr, "experiments: results: %v\n", err)
					os.Exit(2)
				}
			}
		}
		if i > 0 {
			fmt.Println()
		}
		if *markdown {
			fmt.Println(r.Table.Markdown())
		} else {
			fmt.Print(r.Table.String())
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", r.Experiment.ID, r.Elapsed.Round(time.Millisecond))
	}
}

// profileCPU starts a CPU profile into path and returns the function that
// finishes it; with no path both do nothing.
func profileCPU(path string) (stop func()) {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err == nil {
		err = pprof.StartCPUProfile(f)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: -cpuprofile: %v\n", err)
		os.Exit(2)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
	}
}

// runMeta is the environmental identity stamped on result-stream headers.
// It deliberately carries no wall-clock field: two runs of the same tree
// on the same toolchain must produce byte-identical streams.
func runMeta() results.RunMeta {
	info, _ := debug.ReadBuildInfo()
	return results.RunMeta{
		Tool:   "cmd/experiments",
		Go:     runtime.Version(),
		Commit: commitOf(info, os.Getenv("GITHUB_SHA")),
	}
}

// commitOf names the tree a binary was built from: the VCS stamp `go build`
// embeds (vcs.revision, with "-dirty" appended when vcs.modified is true),
// or fallback when the binary carries none.
func commitOf(info *debug.BuildInfo, fallback string) string {
	if info == nil {
		return fallback
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return fallback
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// runScenario executes one named comparison scenario, streaming its
// envelopes to path.
func runScenario(name string, quick bool, shards int, path string) error {
	sc, ok := experiments.ScenarioByName(name)
	if !ok {
		return fmt.Errorf("unknown scenario %q (use -list)", name)
	}
	if path == "" {
		return fmt.Errorf("-scenario requires -results (the scenario's only output is its envelope stream)")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := results.NewWriter(f, name, shards, runMeta())
	sc.Run(quick, w)
	if err := w.Err(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "[scenario %s: %d records -> %s]\n", name, w.Records(), path)
	return nil
}

// exportTelemetry writes the registry and trace in the requested format:
// "text" as instrument lines followed by the indented span tree, "json" as
// one {"instruments": [...], "spans": [...]} object.
func exportTelemetry(w *os.File, format string, reg *telemetry.Registry, tracer *telemetry.Tracer) error {
	switch format {
	case "text":
		if err := reg.WriteText(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
		return tracer.WriteText(w)
	case "json":
		fmt.Fprint(w, "{\"instruments\": ")
		if err := reg.WriteJSON(w); err != nil {
			return err
		}
		fmt.Fprint(w, ", \"spans\": ")
		if err := tracer.WriteJSON(w); err != nil {
			return err
		}
		fmt.Fprintln(w, "}")
		return nil
	default:
		return fmt.Errorf("unknown -telemetry format %q (use text or json)", format)
	}
}
