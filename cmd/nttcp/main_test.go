package main

import (
	"bufio"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestLoopbackSmoke builds the command, starts a responder on a loopback
// port of the kernel's choosing and runs every client mode against it: each
// must exit 0 and print a well-formed report. The tool runs the same engine
// the simulator does, on real sockets; this is the check that the real
// adapter and the CLI around it still work end to end. Its sibling in
// cmd/snmpget does the same for the SNMP tools.
func TestLoopbackSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "nttcp")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	srv := exec.Command(bin, "-serve", "127.0.0.1:0")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Process.Kill()
		srv.Wait()
	})
	banner, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("responder printed no address: %v", err)
	}
	addr := strings.TrimSpace(strings.TrimPrefix(banner, "nttcp responder on "))
	if !strings.HasPrefix(addr, "127.0.0.1:") {
		t.Fatalf("responder banner %q", banner)
	}

	for _, tc := range []struct {
		name string
		args []string
		want string // regexp the output must match
	}{
		{"ping", []string{"-ping"}, `reachable, rtt \S+`},
		{"burst", []string{"-l", "512", "-p", "1ms", "-n", "8"},
			`(?s)received:\s+8/8 \(loss 0\.0%\).*throughput:\s+\d+\.\d+ Mb/s.*one-way delay:.*\(offset 0s\).*elapsed:.*12 packets`},
		{"burst with offset", []string{"-l", "512", "-p", "1ms", "-n", "8", "-offset"},
			`(?s)received:\s+8/8.*one-way delay:\s+\S+ \(offset \S+\).*elapsed:.*28 packets`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-target", addr, "-timeout", "1s"}, tc.args...)
			out, err := exec.Command(bin, args...).CombinedOutput()
			if err != nil {
				t.Fatalf("nttcp %v: %v\n%s", args, err, out)
			}
			if !regexp.MustCompile(tc.want).Match(out) {
				t.Fatalf("nttcp %v printed\n%s\nwant a match of %s", args, out, tc.want)
			}
		})
	}
}
