package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

func buildHiperd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hiperd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestTelemetryDump builds the command and runs `-telemetry json` once per
// monitor wiring. Telemetry readers are resolved when the registry is
// dumped, so a wiring mistake — a reader over a component that is not
// there — shows up here, not at registration: each run must exit 0 and end
// in one JSON object with a non-empty instrument list and a traced span.
// `make telemetry-smoke` runs exactly this.
func TestTelemetryDump(t *testing.T) {
	bin := buildHiperd(t)
	for _, mon := range []string{"hifi", "cots", "hybrid"} {
		t.Run(mon, func(t *testing.T) {
			out, err := exec.Command(bin, "-monitor", mon, "-telemetry", "json").Output()
			if err != nil {
				t.Fatalf("hiperd -monitor %s -telemetry json: %v", mon, err)
			}
			// The narrative log comes first; the dump is the last thing printed.
			i := bytes.LastIndex(out, []byte(`{"instruments": `))
			if i < 0 {
				t.Fatalf("no telemetry dump in the output:\n%s", out)
			}
			var dump struct {
				Instruments []struct{ Name, Kind string }
				Spans       []struct{ Name string }
			}
			if err := json.Unmarshal(out[i:], &dump); err != nil {
				t.Fatalf("dump is not valid JSON: %v\n%s", err, out[i:])
			}
			if len(dump.Instruments) == 0 || len(dump.Spans) == 0 {
				t.Fatalf("%d instruments, %d spans: the stack was not instrumented", len(dump.Instruments), len(dump.Spans))
			}
			kernelCounted := false
			for _, in := range dump.Instruments {
				if in.Name == "" || in.Kind == "" {
					t.Errorf("instrument without a name or kind: %+v", in)
				}
				if in.Name == "sim.proc_switches" && in.Kind == "counter" {
					kernelCounted = true
				}
			}
			if !kernelCounted {
				t.Error("no sim.proc_switches counter in the dump")
			}
		})
	}
}

// TestCPUProfileFlag: -cpuprofile leaves a profile `go tool pprof` can read
// (a gzip stream) and the run still exits 0; an unwritable path is refused
// with exit status 2 before the run starts.
func TestCPUProfileFlag(t *testing.T) {
	bin := buildHiperd(t)
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	if out, err := exec.Command(bin, "-duration", "20s", "-cpuprofile", prof).CombinedOutput(); err != nil {
		t.Fatalf("hiperd -cpuprofile: %v\n%s", err, out)
	}
	b, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("profile is %d bytes and does not start with the gzip magic", len(b))
	}
	err = exec.Command(bin, "-cpuprofile", filepath.Join(prof, "under-a-file")).Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("unwritable -cpuprofile path: %v, want exit status 2", err)
	}
}
