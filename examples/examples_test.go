// Package examples_test runs every example program and holds its stdout to
// a committed golden file, so an example is a checked run of the code it
// shows rather than a program that only compiles.
//
// After a deliberate change to what an example prints, regenerate its
// golden file with
//
//	go run ./examples/<name> > examples/testdata/<name>.stdout
package examples_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesMatchGolden builds each examples/<name>/main.go, runs it and
// compares its stdout byte for byte with testdata/<name>.stdout. An example
// without a golden file fails: every example is a run.
func TestExamplesMatchGolden(t *testing.T) {
	mains, err := filepath.Glob("*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) == 0 {
		t.Fatal("no examples found")
	}
	bin := t.TempDir()
	for _, m := range mains {
		name := filepath.Dir(m)
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".stdout"))
			if err != nil {
				t.Fatalf("no golden stdout for example %s: %v", name, err)
			}
			exe := filepath.Join(bin, name)
			if out, err := exec.Command("go", "build", "-o", exe, "./"+name).CombinedOutput(); err != nil {
				t.Fatalf("go build ./%s: %v\n%s", name, err, out)
			}
			var stderr bytes.Buffer
			cmd := exec.Command(exe)
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.Bytes())
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s stdout differs from testdata/%s.stdout\n--- got\n%s--- want\n%s", name, name, got, want)
			}
		})
	}
}
