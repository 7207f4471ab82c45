package main

import (
	"bufio"
	"net"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/mib"
	"repro/internal/snmp"
)

// TestLoopbackSmoke builds snmpd and snmpget, starts the agent on a
// loopback port of the kernel's choosing and runs every manager verb
// against it: each must exit 0 and print well-formed output. Then it starts
// `snmpget -listen-traps` the same way, sends it one v1 trap and requires
// the trap and its var-bind on the listener's stdout. The tools run the
// same engine the simulator does, on real sockets; this is the check that
// the real adapter and the CLIs around it still work end to end. Its
// sibling in cmd/nttcp does the same for the NTTCP tool.
func TestLoopbackSmoke(t *testing.T) {
	dir := t.TempDir()
	snmpd, snmpget := filepath.Join(dir, "snmpd"), filepath.Join(dir, "snmpget")
	for bin, pkg := range map[string]string{snmpd: "../snmpd", snmpget: "."} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	addr, _ := startServing(t, "snmpd serving on ", snmpd, "-listen", "127.0.0.1:0")

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

	t.Run("listen-traps", func(t *testing.T) {
		station, lines := startServing(t, "listening for traps on ", snmpget, "-listen-traps", "127.0.0.1:0")
		conn, err := net.Dial("udp", station)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		bind := snmp.VarBind{OID: mib.Enterprise.Append(1, 0), Value: mib.Counter(7)}
		trap := snmp.Message{Version: snmp.V1, Community: "public", PDU: snmp.PDU{
			Type: snmp.TrapV1, Enterprise: mib.Enterprise, AgentAddr: []byte{127, 0, 0, 1},
			GenericTrap: snmp.TrapEnterpriseSpecific, SpecificTrap: 42, VarBinds: []snmp.VarBind{bind},
		}}
		if _, err := conn.Write(trap.AppendTo(nil)); err != nil {
			t.Fatal(err)
		}
		got := make(chan string, 1)
		go func() {
			var out strings.Builder
			for i := 0; i < 2; i++ {
				line, err := lines.ReadString('\n')
				out.WriteString(line)
				if err != nil {
					break
				}
			}
			got <- out.String()
		}()
		var out string
		select {
		case out = <-got:
		case <-time.After(5 * time.Second):
			t.Fatal("listener printed no trap within 5 s")
		}
		want := `^trap from 127\.0\.0\.1:\d+: enterprise=` + regexp.QuoteMeta(mib.Enterprise.String()) +
			` generic=6 specific=42 ts=0\n  ` + regexp.QuoteMeta(bind.OID.String()+" = 7") + `\n$`
		if !regexp.MustCompile(want).MatchString(out) {
			t.Fatalf("listener printed\n%s\nwant a match of %s", out, want)
		}
	})
}

// startServing starts bin with args, reads the banner line it prints once
// bound and returns the 127.0.0.1 address that follows prefix in it, with
// the rest of the process's stdout. The process is killed at cleanup.
func startServing(t *testing.T, prefix, bin string, args ...string) (string, *bufio.Reader) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	r := bufio.NewReader(stdout)
	banner, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("%s printed no address: %v", filepath.Base(bin), err)
	}
	addr, _, _ := strings.Cut(strings.TrimSpace(strings.TrimPrefix(banner, prefix)), " ")
	if !strings.HasPrefix(addr, "127.0.0.1:") {
		t.Fatalf("%s banner %q", filepath.Base(bin), banner)
	}
	return addr, r
}
