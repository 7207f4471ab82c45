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

// TestHiperdMatchesGolden runs four scenarios and compares each stdout byte
// for byte with testdata/<name>.stdout. The 400 s hifi run is the only one
// long enough for the clients' classifier to engage anything (117 tracks),
// so it pins the RTDS decisions as well as the narrated failover. After a
// deliberate change to what hiperd prints, regenerate a golden with e.g.
//
//	go run ./cmd/hiperd -duration 400s > cmd/hiperd/testdata/hifi-400s.stdout
func TestHiperdMatchesGolden(t *testing.T) {
	bin := buildHiperd(t)
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"hifi-400s", []string{"-duration", "400s"}},
		{"cots", []string{"-monitor", "cots"}},
		{"hybrid", []string{"-monitor", "hybrid"}},
		{"fail-c3-120s", []string{"-fail", "c3", "-duration", "120s"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".stdout"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := exec.Command(bin, tc.args...).Output()
			if err != nil {
				t.Fatalf("hiperd %v: %v", tc.args, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("hiperd %v stdout differs from testdata/%s.stdout\n--- got\n%s--- want\n%s", tc.args, tc.name, got, want)
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

// TestMemProfileFlag: -memprofile leaves a non-empty allocs profile `go tool
// pprof` can read (a gzip stream) and the run still exits 0; an unwritable
// path is refused with exit status 2 before the run starts.
func TestMemProfileFlag(t *testing.T) {
	bin := buildHiperd(t)
	prof := filepath.Join(t.TempDir(), "allocs.prof")
	if out, err := exec.Command(bin, "-duration", "20s", "-memprofile", prof).CombinedOutput(); err != nil {
		t.Fatalf("hiperd -memprofile: %v\n%s", err, out)
	}
	b, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("profile is %d bytes and does not start with the gzip magic", len(b))
	}
	err = exec.Command(bin, "-memprofile", filepath.Join(prof, "under-a-file")).Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("unwritable -memprofile path: %v, want exit status 2", err)
	}
}

// TestUnknownFailHost: -fail naming a host the testbed does not have is
// refused with exit status 2 before the run, naming the host, instead of
// running the whole horizon without a fault.
func TestUnknownFailHost(t *testing.T) {
	bin := buildHiperd(t)
	cmd := exec.Command(bin, "-fail", "s9")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("hiperd -fail s9: %v, want exit status 2", err)
	}
	if len(out) != 0 {
		t.Fatalf("the run started: %d bytes on stdout", len(out))
	}
	if !bytes.Contains(stderr.Bytes(), []byte(`"s9"`)) {
		t.Fatalf("stderr does not name the host: %q", stderr.String())
	}
}
