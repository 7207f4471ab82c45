package main

import (
	"bufio"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestLoopbackSmoke builds snmpd and snmpget, starts the agent on a
// loopback port of the kernel's choosing and runs every manager verb
// against it: each must exit 0 and print well-formed output. The tools run
// the same engine the simulator does, on real sockets; this is the check
// that the real adapter and the CLIs around it still work end to end.
// `make loopback-smoke` runs exactly this (and its sibling in cmd/nttcp).
func TestLoopbackSmoke(t *testing.T) {
	dir := t.TempDir()
	snmpd, snmpget := filepath.Join(dir, "snmpd"), filepath.Join(dir, "snmpget")
	for bin, pkg := range map[string]string{snmpd: "../snmpd", snmpget: "."} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	agent := exec.Command(snmpd, "-listen", "127.0.0.1:0")
	stdout, err := agent.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		agent.Process.Kill()
		agent.Wait()
	})
	banner, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("agent printed no address: %v", err)
	}
	addr, _, _ := strings.Cut(strings.TrimPrefix(banner, "snmpd serving on "), " ")
	if !strings.HasPrefix(addr, "127.0.0.1:") {
		t.Fatalf("agent banner %q", banner)
	}

	// In order: the get after the set reads the value back.
	for _, tc := range []struct {
		name string
		args []string
		want string // regexp the output must match
	}{
		{"get", []string{"get", "1.3.6.1.2.1.1.1.0"}, `^\.1\.3\.6\.1\.2\.1\.1\.1\.0 = OCTET STRING: repro snmpd`},
		{"getnext", []string{"getnext", "1.3.6.1.2.1.1.1.0"}, `^\.1\.3\.6\.1\.2\.1\.1\.2\.0 = OBJECT IDENTIFIER: `},
		{"walk", []string{"walk", "1.3.6.1.2.1.1"}, `(?s)^(\.1\.3\.6\.1\.2\.1\.1\.\d\.0 = [^\n]+\n){7}\(7 objects\)\n$`},
		{"set", []string{"set", "1.3.6.1.4.1.5307.3.0", "42"}, `^ok\n$`},
		{"get after set", []string{"get", "1.3.6.1.4.1.5307.3.0"}, `= INTEGER: 42\n$`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-agent", addr}, tc.args...)
			out, err := exec.Command(snmpget, args...).CombinedOutput()
			if err != nil {
				t.Fatalf("snmpget %v: %v\n%s", args, err, out)
			}
			if !regexp.MustCompile(tc.want).Match(out) {
				t.Fatalf("snmpget %v printed\n%s\nwant a match of %s", args, out, tc.want)
			}
		})
	}
}
