package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/results"
)

// TestCPUProfileFlag: -cpuprofile leaves a profile `go tool pprof` can read
// (a non-empty gzip stream) of the experiments named — here E9's Walk — and
// the tables still print; an unwritable path is refused with exit status 2.
func TestCPUProfileFlag(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	out, err := exec.Command("go", "run", ".", "-quick", "-cpuprofile", prof, "E9").Output()
	if err != nil || len(out) == 0 {
		t.Fatalf("experiments -cpuprofile: %v, %d bytes of tables", err, len(out))
	}
	b, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("profile is %d bytes and does not start with the gzip magic", len(b))
	}
	err = exec.Command("go", "run", ".", "-quick", "-cpuprofile", filepath.Join(prof, "under-a-file"), "E9").Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("unwritable -cpuprofile path: %v, want a failing exit", err)
	}
}

// TestTelemetryDump runs `-quick -telemetry json`: E13's instrumented chaos
// run, dumped. The readers are resolved at dump time, so this is where a
// wiring mistake in the cots + resilience stack would surface: the run must
// exit 0 and print one JSON object with E13's 30 instruments, the kernel's
// sim.proc_switches and a sweep trace. `make telemetry-smoke` runs exactly
// this.
func TestTelemetryDump(t *testing.T) {
	out, err := exec.Command("go", "run", ".", "-quick", "-telemetry", "json").Output()
	if err != nil {
		t.Fatalf("experiments -quick -telemetry json: %v", err)
	}
	var dump struct {
		Instruments []struct{ Name, Kind string }
		Spans       []struct{ Name string }
	}
	if err := json.Unmarshal(out, &dump); err != nil {
		t.Fatalf("stdout is not one JSON object: %v\n%s", err, out)
	}
	if len(dump.Instruments) != 31 || len(dump.Spans) == 0 {
		t.Fatalf("%d instruments, %d spans; E13's table says 30 instruments and a sweep trace, and the kernel adds one",
			len(dump.Instruments), len(dump.Spans))
	}
	if last := dump.Instruments[30]; last.Name != "sim.proc_switches" || last.Kind != "counter" {
		t.Fatalf("last instrument is %+v, want the sim.proc_switches counter", last)
	}
}

// TestResultsArtifact: `-quick -results <file> E15` — what `make
// e15-artifact` runs and CI uploads — leaves a stream results.Read accepts,
// holding one record for every numeric cell of the E15 table the same run
// prints.
func TestResultsArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "E15_sketch.jsonl")
	if out, err := exec.Command("go", "run", ".", "-quick", "-results", path, "E15").Output(); err != nil || len(out) == 0 {
		t.Fatalf("experiments -quick -results: %v, %d bytes of tables", err, len(out))
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	set, err := results.Read(f)
	if err != nil || set.Truncated {
		t.Fatalf("results.Read: %v (truncated %v)", err, set != nil && set.Truncated)
	}
	e15, _ := experiments.ByID("E15")
	table := experiments.RunAll([]experiments.Experiment{e15}, true, 1)[0].Table
	want := 0
	for _, row := range table.Rows {
		for _, cell := range row {
			if _, _, ok := results.ParseCell(cell); ok {
				want++
			}
		}
	}
	if want == 0 || len(set.Records) != want {
		t.Fatalf("%d records for %d numeric E15 cells", len(set.Records), want)
	}
	for _, rec := range set.Records {
		if !strings.HasPrefix(rec.Batch, "E15/row") || len(rec.Samples) != 1 {
			t.Fatalf("record %+v is not one E15 cell", rec)
		}
	}
}

// TestCommitOf: a VCS-stamped binary names its revision, marked dirty when
// the tree had uncommitted changes, and $GITHUB_SHA is used only when the
// binary carries no stamp.
func TestCommitOf(t *testing.T) {
	stamped := func(kv ...string) *debug.BuildInfo {
		info := &debug.BuildInfo{}
		for i := 0; i < len(kv); i += 2 {
			info.Settings = append(info.Settings, debug.BuildSetting{Key: kv[i], Value: kv[i+1]})
		}
		return info
	}
	cases := []struct {
		name string
		info *debug.BuildInfo
		want string
	}{
		{"clean tree", stamped("vcs", "git", "vcs.revision", "abc123", "vcs.modified", "false"), "abc123"},
		{"dirty tree", stamped("vcs.modified", "true", "vcs.revision", "abc123"), "abc123-dirty"},
		{"revision without modified flag", stamped("vcs.revision", "abc123"), "abc123"},
		{"no VCS stamp", stamped("-compiler", "gc", "vcs.modified", "true"), "ci-sha"},
		{"no build info", nil, "ci-sha"},
	}
	for _, tc := range cases {
		if got := commitOf(tc.info, "ci-sha"); got != tc.want {
			t.Errorf("%s: commitOf = %q, want %q", tc.name, got, tc.want)
		}
	}
}
