// Command bench is the repository's benchmark: six fixed, seeded workloads
// run as closed-loop single-process runs, every end-to-end and per-layer
// metric printed by name with its unit, the outputs checked, and a traced
// run that says where the time went. It measures every layer from outside,
// through public functions, counters and seams; nothing under internal/
// knows it exists.
//
//	bash bench/run.sh                        all six workloads, timed + traced
//	bash bench/run.sh -workload db-ingest    one workload
//	bash bench/run.sh -selfcheck             A/B on the same tree, seeds 1 and 2
//	bash bench/run.sh -compare a.json b.json the same rule on two saved runs
//
// The benchmark driver runs one workload per process:
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// extraSetups bounds the set-up-only passes a timed run adds (it also stops
// after one second of them).
const extraSetups = 1000

// pinnedProcs is the GOMAXPROCS every workload runs at. The kernel hands
// control between goroutines on every Proc switch, and whether that
// hand-off crosses Ps changes the run by tens of percent
// (sim.p1_wall_ratio), so the value is pinned and recorded.
const pinnedProcs = 2

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is how many iterations a host median summarises; printed, never
	// encoded (the driver contract fixes the object's keys).
	N int `json:"-"`
}

// report is the last line of a single-workload run — exactly the keys the
// driver contract names.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// header records where and on what a run was made.
type header struct {
	Tool       string `json:"tool"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

// savedRun is what the all-workloads mode writes and -compare reads.
type savedRun struct {
	Header    header                      `json:"header"`
	Workloads map[string]map[string]value `json:"workloads"`
}

type options struct {
	workload   string
	seed       int64
	seconds    int
	iterations int
	trace      string
	out        string
	smoke      bool // smoke sizes; tests set it, no flag does
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all six, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the generated inputs (topology, traffic, db values)")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "how long one run measures")
	flag.IntVar(&o.iterations, "iterations", 0, "timed iterations per run (default: as many as fit in -seconds, at least 3)")
	flag.StringVar(&o.trace, "trace", "", "0: end-to-end metrics, tracing off (default with -workload); 1: per-layer metrics from the traced run; the all-workloads run does both")
	flag.StringVar(&o.out, "out", "", "directory for traces and results (default bench/out)")
	selfcheck := flag.Bool("selfcheck", false, "run the whole benchmark twice per seed (1 and 2) and fail on any disagreement beyond the bounds")
	compare := flag.Bool("compare", false, "compare two saved runs: -compare a.json b.json")
	contract := flag.Bool("print-contract", false, "print BENCHMARK.json as the catalogue defines it")
	list := flag.Bool("list", false, "print the metric catalogue")
	flag.Parse()

	if o.out == "" {
		o.out = "out"
		if st, err := os.Stat("bench"); err == nil && st.IsDir() {
			o.out = filepath.Join("bench", "out")
		}
	}
	var err error
	switch {
	case *contract:
		var b []byte
		if b, err = contractJSON(); err == nil {
			_, err = os.Stdout.Write(b)
		}
	case *list:
		printCatalogue()
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two result files")
		} else {
			err = compareFiles(flag.Arg(0), flag.Arg(1))
		}
	case *selfcheck:
		err = selfCheck(o)
	case o.workload != "":
		err = runOne(o)
	default:
		err = runAll(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func newHeader(o options) header {
	h := header{Tool: "bench", NProc: runtime.NumCPU(), GOMAXPROCS: pinnedProcs,
		Go: runtime.Version(), Commit: os.Getenv("GITHUB_SHA"), Seed: o.seed, Seconds: o.seconds}
	if info, ok := debug.ReadBuildInfo(); ok && h.Commit == "" {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	return h
}

// runOne is the single-process run of one workload: what the driver calls.
func runOne(o options) error {
	w := findWorkload(o.workload)
	if w == nil {
		var names []string
		for _, x := range workloads {
			names = append(names, x.name)
		}
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	runtime.GOMAXPROCS(pinnedProcs)
	h := newHeader(o)
	fmt.Printf("# bench %s seed=%d seconds=%d trace=%s nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		w.name, o.seed, o.seconds, o.trace, h.NProc, h.GOMAXPROCS, h.Go, h.Commit)

	var rep *report
	var err error
	var defs []metricDef
	switch o.trace {
	case "0", "":
		rep, err = timedRun(w, o)
		defs = endToEnd
	case "1":
		rep, err = tracedRun(w, o)
		defs = perLayer
	default:
		return fmt.Errorf("-trace wants 0 or 1, got %q", o.trace)
	}
	if err != nil {
		return err
	}
	printMetrics(defs, rep.Metrics)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printMetrics(defs []metricDef, got map[string]value) {
	for _, d := range defs {
		v := got[d.name]
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("  n=%d", v.N)
		}
		fmt.Printf("  %-30s %16.6g %-9s%s\n", d.name, v.Value, d.unit, n)
	}
}

func printCatalogue() {
	fmt.Println("end-to-end (tracing off, median over the timed iterations):")
	for _, m := range endToEnd {
		fmt.Printf("  %-30s %-9s %-6s bound %.0f%%  %s\n", m.name, m.unit, m.better, m.bound*100, m.doc)
	}
	fmt.Println("per-layer (c = counter, s = span, p = probe, d = derived; * = exact for a seed):")
	for _, m := range perLayer {
		star := " "
		if m.exact {
			star = "*"
		}
		fmt.Printf("  %-30s %-9s %-6s (%s)%s %s\n      moves: %s\n", m.name, m.unit, m.better, m.src, star, m.doc, m.moves)
	}
}

// timedRun measures the end-to-end metrics: one discarded warm-up
// iteration, then timed iterations of the same deterministic run for
// o.seconds (or o.iterations). Every iteration's outcome digest must equal
// the first's; a run that disagrees with itself reports nothing.
func timedRun(w *workload, o options) (*report, error) {
	c := &ctx{seed: o.seed, smoke: o.smoke}
	warm, err := w.iterate(c)
	if err != nil {
		return nil, err
	}
	var rs []*result
	start := time.Now()
	for i := 0; ; i++ {
		if o.iterations > 0 {
			if i >= o.iterations {
				break
			}
		} else if i >= 3 && time.Since(start) >= time.Duration(o.seconds)*time.Second {
			break
		}
		r, err := w.iterate(c)
		if err != nil {
			return nil, err
		}
		if r.digest != warm.digest {
			return nil, fmt.Errorf("%s: iteration %d disagrees with the first:\n  first %s\n  this  %s",
				w.name, i+1, warm.digest, r.digest)
		}
		rs = append(rs, r)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	fmt.Print("# wall_s per iteration:")
	for _, r := range rs {
		fmt.Printf(" %.4f", r.wallS)
	}
	fmt.Println()
	// Set-up is a fraction of a millisecond on the sim workloads; set up
	// far more often than the timed iterations did, back to back on a
	// collected heap, so its median is steady. (A collection before every
	// pass, as before every iteration, empties the allocator's caches and
	// makes a 150 µs set-up swing by a factor of two.)
	setups := make([]float64, 0, len(rs)+extraSetups)
	for _, r := range rs {
		setups = append(setups, r.setupS)
	}
	extra := extraSetups
	if o.smoke {
		extra = 3
	}
	runtime.GC()
	for i, t0 := 0, time.Now(); i < extra && time.Since(t0) < time.Second; i++ {
		t1 := time.Now()
		j, err := w.setup(c)
		d := time.Since(t1)
		if err != nil {
			return nil, err
		}
		j.close()
		setups = append(setups, d.Seconds())
	}
	col := func(f func(*result) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	samples := float64(warm.samples)
	m := map[string]float64{
		"setup_s":           median(setups),
		"wall_s":            col(func(r *result) float64 { return r.wallS }),
		"allocs_per_sample": col(func(r *result) float64 { return float64(r.mallocs) / samples }),
		"bytes_per_sample":  col(func(r *result) float64 { return float64(r.bytes) / samples }),
		"peak_rss_mb":       rss,
	}
	// Attempted is one iteration's operations: every iteration repeats them
	// exactly (the digest check above), so the count depends on the workload
	// and the seed, never on how many iterations fitted into the run. Failed
	// stays 0: an operation whose outcome is not the expected one fails the
	// run, and the faults the inputs inject are op_fail_frac's business.
	rep := &report{Correct: true, Attempted: warm.attempts, Metrics: make(map[string]value)}
	for _, d := range endToEnd {
		rep.Metrics[d.name] = value{Value: m[d.name], Unit: d.unit, N: len(rs)}
	}
	return rep, nil
}

// peakRSSMiB reads this process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb); err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// runChild runs one workload in a fresh child process of this binary and
// parses the report on its last line.
func runChild(o options, name, trace string) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", trace, "-out", o.out}
	if o.iterations > 0 {
		args = append(args, "-iterations", fmt.Sprint(o.iterations))
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(outBytes), "\n"), "\n")
	if err != nil {
		return nil, fmt.Errorf("%s (trace %s): %w", name, trace, err)
	}
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("%s (trace %s): last line is not a report: %w", name, trace, err)
	}
	if !rep.Correct {
		return nil, fmt.Errorf("%s (trace %s): outputs incorrect", name, trace)
	}
	return &rep, nil
}

// runWorkload runs one workload, timed then traced, each in a fresh child
// process, prints every metric, and returns them all.
func runWorkload(o options, w *workload) (map[string]value, error) {
	all := make(map[string]value)
	for _, step := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		rep, err := runChild(o, w.name, step.trace)
		if err != nil {
			return nil, err
		}
		fmt.Printf("\n== %s (trace %s): attempted %d, failed %d\n", w.name, step.trace, rep.Attempted, rep.Failed)
		printMetrics(step.defs, rep.Metrics)
		for k, v := range rep.Metrics {
			all[k] = v
		}
	}
	return all, nil
}

func newSavedRun(o options) *savedRun {
	run := &savedRun{Header: newHeader(o), Workloads: make(map[string]map[string]value)}
	h := run.Header
	fmt.Printf("# bench: %d workloads, seed=%d, %d s per run, nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		len(workloads), o.seed, o.seconds, h.NProc, h.GOMAXPROCS, h.Go, h.Commit)
	return run
}

// runAll runs every workload and saves the run.
func runAll(o options) error {
	run := newSavedRun(o)
	for i := range workloads {
		all, err := runWorkload(o, &workloads[i])
		if err != nil {
			return err
		}
		run.Workloads[workloads[i].name] = all
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(run, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.out, fmt.Sprintf("results-seed%d.json", o.seed))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nsaved %s; traces in %s\n", path, o.out)
	return nil
}
