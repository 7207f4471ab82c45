package experiments

import (
	"strings"
	"testing"

	"repro/internal/report"
)

// TestRunAllParallelDeterminism checks that RunAll preserves input order and
// produces byte-identical tables at any worker count: every experiment owns
// an independent kernel, so concurrency must not perturb results.
func TestRunAllParallelDeterminism(t *testing.T) {
	var exps []Experiment
	for _, id := range []string{"E4", "E8", "E9"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		exps = append(exps, e)
	}
	serial := RunAll(exps, true, 1)
	parallel := RunAll(exps, true, 4)
	if len(serial) != len(exps) || len(parallel) != len(exps) {
		t.Fatalf("result counts = %d, %d, want %d", len(serial), len(parallel), len(exps))
	}
	for i := range exps {
		if serial[i].Experiment.ID != exps[i].ID || parallel[i].Experiment.ID != exps[i].ID {
			t.Fatalf("result %d out of order: %s / %s, want %s",
				i, serial[i].Experiment.ID, parallel[i].Experiment.ID, exps[i].ID)
		}
		s, p := serial[i].Table.String(), parallel[i].Table.String()
		if s != p {
			t.Fatalf("%s diverged between serial and parallel runs:\n%s\nvs\n%s", exps[i].ID, s, p)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E1"); !ok {
		t.Fatal("E1 missing")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("E99 found")
	}
}

// valueOf returns the value behind a numeric cell, before rounding, and
// fails the test on a text cell ("-", "not detected"), so a shape
// assertion cannot pass on a cell that holds no number.
func valueOf(t *testing.T, c report.Cell) float64 {
	t.Helper()
	if !c.Numeric {
		t.Fatalf("cell %q is not a number", c.Text)
	}
	return c.Value
}

func TestE1Shape(t *testing.T) {
	table := E1(true)
	par, seq := table.Rows[0], table.Rows[1]
	parLoad, seqLoad := valueOf(t, par[2]), valueOf(t, seq[2])
	// The paper's factor-27 gap (59 vs 2.18 Mb/s): demand at least 10x and
	// the right magnitudes.
	if parLoad < 10*seqLoad {
		t.Fatalf("parallel %v not >> sequential %v", par[2], seq[2])
	}
	if parLoad < 40e6 || parLoad > 80e6 {
		t.Fatalf("parallel peak %v, want ≈59-63 Mb/s", par[2])
	}
	if seqLoad < 1.5e6 || seqLoad > 4e6 {
		t.Fatalf("sequential peak %v, want ≈2.2-2.7 Mb/s", seq[2])
	}
}

func TestE5Shape(t *testing.T) {
	table := E5(true)
	first, last := table.Rows[0], table.Rows[len(table.Rows)-1]
	// Probe capture stays complete at every load.
	for _, row := range table.Rows {
		if valueOf(t, row[2]) < 99 {
			t.Fatalf("probe capture dropped: %v", row)
		}
	}
	// SNMP success degrades between light and overload.
	if valueOf(t, last[3]) >= valueOf(t, first[3]) {
		t.Fatalf("SNMP success did not degrade: %v -> %v", first[3], last[3])
	}
	if valueOf(t, last[3]) > 90 {
		t.Fatalf("overload SNMP success %v, expected heavy loss", last[3])
	}
}

func TestE6Shape(t *testing.T) {
	table := E6(true)
	small := table.Rows[0]
	big := table.Rows[len(table.Rows)-1]
	if valueOf(t, small[5]) < 99 {
		t.Fatalf("small burst not fully processed: %v", small)
	}
	if valueOf(t, big[5]) > 50 {
		t.Fatalf("big burst not overrunning: %v", big)
	}
}

func TestE9Shape(t *testing.T) {
	table := E9(true)
	if table.Rows[0][2].Text != "5/22" || table.Rows[1][2].Text != "22/22" {
		t.Fatalf("coverage rows: %v", table.Rows)
	}
	for _, n := range table.Notes {
		if strings.Contains(n, "WARNING") {
			t.Fatalf("E9 warned: %s", n)
		}
	}
}

func TestE2Shape(t *testing.T) {
	table := E2(true)
	par, seq := table.Rows[0], table.Rows[1]
	if valueOf(t, seq[3]) < 10*valueOf(t, par[3]) {
		t.Fatalf("sequencer spacing %v not >> parallel %v", seq[3], par[3])
	}
	// Sequencer spacing tracks the analytic C·S·T within 30%.
	if r := valueOf(t, seq[3]) / valueOf(t, seq[4]); r < 0.7 || r > 1.3 {
		t.Fatalf("spacing %v vs analytic %v", seq[3], seq[4])
	}
}

func TestE3Shape(t *testing.T) {
	table := E3(true)
	first, last := table.Rows[0], table.Rows[len(table.Rows)-1]
	if valueOf(t, first[4]) <= valueOf(t, last[4]) {
		t.Fatalf("dispersion did not shrink with burst length: %v -> %v", first[4], last[4])
	}
}

func TestE4Shape(t *testing.T) {
	table := E4(true)
	exch, ntp := table.Rows[0], table.Rows[1]
	if valueOf(t, exch[3]) < 3*valueOf(t, ntp[3]) {
		t.Fatalf("exchange %v not >> NTP %v bytes/measurement", exch[3], ntp[3])
	}
	// The exchange buys accuracy for its cost.
	if valueOf(t, exch[4]) > valueOf(t, ntp[4]) {
		t.Fatalf("exchange err %v worse than NTP %v", exch[4], ntp[4])
	}
}

func TestE7Shape(t *testing.T) {
	table := E7(true)
	direct := table.Rows[0]
	if valueOf(t, direct[4]) > 2 {
		t.Fatalf("nttcp direct err %v", direct[4])
	}
	flow := table.Rows[len(table.Rows)-1]
	if !strings.Contains(flow[0].Text, "flow meter") {
		t.Fatalf("last row not flow meter: %v", flow)
	}
	if valueOf(t, flow[4]) > 5 {
		t.Fatalf("flow meter err %v", flow[4])
	}
	// Counter-delta rows are corrupted by cross traffic.
	for _, row := range table.Rows[1 : len(table.Rows)-1] {
		if valueOf(t, row[4]) < 10 {
			t.Fatalf("counter row unexpectedly accurate: %v", row)
		}
	}
}

func TestE10Shape(t *testing.T) {
	table := E10(true)
	// Rows come in blocks of 4 per size: parallel, sequencer, cots, hybrid.
	var parLoads, seqLoads, cotsLoads []float64
	for i := 0; i+3 < len(table.Rows); i += 4 {
		parLoads = append(parLoads, valueOf(t, table.Rows[i][2]))
		seqLoads = append(seqLoads, valueOf(t, table.Rows[i+1][2]))
		cotsLoads = append(cotsLoads, valueOf(t, table.Rows[i+2][2]))
	}
	last := len(parLoads) - 1
	if parLoads[last] < 3*parLoads[0] {
		t.Fatalf("parallel load did not scale: %v", parLoads)
	}
	if seqLoads[last] > 2*seqLoads[0] {
		t.Fatalf("sequencer load should stay flat: %v", seqLoads)
	}
	if cotsLoads[last] > seqLoads[last]/10 {
		t.Fatalf("cots load %v not << sequencer %v", cotsLoads[last], seqLoads[last])
	}
}

func TestE11Shape(t *testing.T) {
	table := E11(true)
	first, last := table.Rows[0], table.Rows[len(table.Rows)-1]
	if valueOf(t, last[1]) <= valueOf(t, first[1]) {
		t.Fatalf("detection latency should grow with interval: %v -> %v", first[1], last[1])
	}
	if valueOf(t, last[2]) >= valueOf(t, first[2]) {
		t.Fatalf("overhead should shrink with interval: %v -> %v", first[2], last[2])
	}
}

func TestA1Shape(t *testing.T) {
	table := A1(true)
	overload := table.Rows[len(table.Rows)-1]
	if valueOf(t, overload[2]) < valueOf(t, overload[1])+20 {
		t.Fatalf("informs not clearly better than traps at overload: %v", overload)
	}
	if valueOf(t, overload[2]) < 90 {
		t.Fatalf("inform delivery at overload only %v", overload[2])
	}
}
