package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// difference is one metric on one workload that two runs disagree on
// beyond what the benchmark allows.
type difference struct {
	workload, metric string
	a, b             float64
	why              string
}

// compareRuns applies the benchmark's own rule to two runs of the same
// tree: an end-to-end median may not differ by more than its bound (either
// way: neither run is the parent), and a metric that is a count or a
// virtual time may not differ at all. It prints the A/B table.
func compareRuns(a, b *savedRun) []difference {
	var diffs []difference
	if a.Header.Seed != b.Header.Seed {
		fmt.Printf("note: seeds differ (%d vs %d); exact metrics are compared anyway\n", a.Header.Seed, b.Header.Seed)
	}
	for _, w := range workloads {
		ma, mb := a.Workloads[w.name], b.Workloads[w.name]
		if ma == nil || mb == nil {
			diffs = append(diffs, difference{w.name, "-", 0, 0, "workload missing from one run"})
			continue
		}
		fmt.Printf("\n== %s\n  %-30s %16s %16s %9s  %s\n", w.name, "metric", "A", "B", "diff", "rule")
		for _, d := range endToEnd {
			va, vb := ma[d.name].Value, mb[d.name].Value
			rel := math.Abs(va-vb) / math.Min(math.Abs(va), math.Abs(vb))
			verdict := "ok"
			if !(rel <= d.bound) {
				verdict = "FAIL"
				diffs = append(diffs, difference{w.name, d.name, va, vb, fmt.Sprintf("differs %.1f%%, bound %.0f%%", rel*100, d.bound*100)})
			}
			fmt.Printf("  %-30s %16.6g %16.6g %8.2f%%  within %.0f%%: %s\n", d.name, va, vb, rel*100, d.bound*100, verdict)
		}
		for _, d := range perLayer {
			if !d.exact {
				continue
			}
			va, vb := ma[d.name].Value, mb[d.name].Value
			if va != vb {
				diffs = append(diffs, difference{w.name, d.name, va, vb, "exact metric differs"})
				fmt.Printf("  %-30s %16.6g %16.6g %9s  exact: FAIL\n", d.name, va, vb, "")
			}
		}
	}
	return diffs
}

func conclude(diffs []difference) error {
	if len(diffs) == 0 {
		fmt.Println("\nruns agree within the benchmark's bounds; exact metrics identical")
		return nil
	}
	fmt.Println()
	for _, d := range diffs {
		fmt.Printf("DISAGREE %s %s: %g vs %g (%s)\n", d.workload, d.metric, d.a, d.b, d.why)
	}
	return fmt.Errorf("%d metric(s) disagree", len(diffs))
}

func loadRun(path string) (*savedRun, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r savedRun
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func compareFiles(pa, pb string) error {
	a, err := loadRun(pa)
	if err != nil {
		return err
	}
	b, err := loadRun(pb)
	if err != nil {
		return err
	}
	return conclude(compareRuns(a, b))
}

// selfCheck runs the whole benchmark twice on this tree at seed 1 and
// twice at the held-out seed 2, and fails if either pair disagrees: the rule
// -compare applies, at the same bounds. The box drifts by 5-10 % over a
// quarter of an hour, so the two sides of a workload run back to back.
func selfCheck(o options) error {
	var diffs []difference
	for _, seed := range []int64{1, 2} {
		o.seed = seed
		a, b := newSavedRun(o), newSavedRun(o)
		for i := range workloads {
			w := &workloads[i]
			for _, side := range []*savedRun{a, b} {
				all, err := runWorkload(o, w)
				if err != nil {
					return err
				}
				side.Workloads[w.name] = all
			}
		}
		fmt.Printf("\n#### A/B at seed %d\n", seed)
		diffs = append(diffs, compareRuns(a, b)...)
	}
	return conclude(diffs)
}
