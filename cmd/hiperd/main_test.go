package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestTelemetryDump builds the command and runs `-telemetry json` once per
// monitor wiring. Telemetry readers are resolved when the registry is
// dumped, so a wiring mistake — a reader over a component that is not
// there — shows up here, not at registration: each run must exit 0 and end
// in one JSON object with a non-empty instrument list and a traced span.
// `make telemetry-smoke` runs exactly this.
func TestTelemetryDump(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "hiperd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
			for _, in := range dump.Instruments {
				if in.Name == "" || in.Kind == "" {
					t.Errorf("instrument without a name or kind: %+v", in)
				}
			}
		})
	}
}
