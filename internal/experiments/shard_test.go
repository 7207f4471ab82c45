package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// runAllTables renders every registered experiment's table with the given
// kernel construction mode. Serial workers keep the harness out of the
// comparison; the mode itself is what is under test.
func runAllTables(t *testing.T, shards int) map[string]string {
	t.Helper()
	SetShards(shards)
	defer SetShards(0)
	out := make(map[string]string)
	for _, r := range RunAll(All(), true, 2) {
		if r.Table == nil {
			t.Fatalf("%s returned no table at shards=%d", r.Experiment.ID, shards)
		}
		out[r.Experiment.ID] = r.Table.String()
	}
	return out
}

// TestSingleShardBitIdentical is the tentpole acceptance gate: every
// registered experiment's table must be byte-identical between the legacy
// plain kernel and a 1-shard sharded run. The legacy run is also the
// quick-suite oracle: its tables, in All() order and joined by a blank
// line as cmd/experiments prints them, must hash to line 2 of
// testdata/tables.sha256, the digest `make tables-digest` holds `-quick` to.
func TestSingleShardBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite comparison")
	}
	legacy := runAllTables(t, 0)
	var printed []string
	for _, e := range All() {
		printed = append(printed, legacy[e.ID])
	}
	pin, err := os.ReadFile("testdata/tables.sha256")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(strings.Join(printed, "\n")))
	if got, want := hex.EncodeToString(sum[:]), strings.Split(string(pin), "\n")[1]; got != want {
		t.Errorf("quick tables hash to %s, testdata/tables.sha256 line 2 says %s; `make tables-digest` names the first differing table", got, want)
	}
	oneShard := runAllTables(t, 1)
	for id, want := range legacy {
		if got := oneShard[id]; got != want {
			t.Errorf("%s table differs between legacy and 1-shard kernels:\n--- legacy ---\n%s\n--- 1-shard ---\n%s", id, want, got)
		}
	}
}

// TestMultiShardDeterminism asserts (a) repeated N-shard runs produce
// identical tables, and (b) tables agree across -shards values: every
// registered experiment is shard-agnostic — its workload runs on shard 0
// with idle peers (E14 sweeps its own shard counts internally) — so the
// windowed scheduler must be invisible in the output.
func TestMultiShardDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite comparison")
	}
	first := runAllTables(t, 3)
	second := runAllTables(t, 3)
	for id, want := range first {
		if got := second[id]; got != want {
			t.Errorf("%s not deterministic across repeated 3-shard runs:\n--- first ---\n%s\n--- second ---\n%s", id, want, got)
		}
	}
	legacy := runAllTables(t, 0)
	for id, want := range legacy {
		if got := first[id]; got != want {
			t.Errorf("%s table depends on shard count:\n--- legacy ---\n%s\n--- 3 shards ---\n%s", id, want, got)
		}
	}
}

// TestE14Shape checks the scaling experiment's structural invariants in
// quick mode: one row per swept shard count, matching event totals and
// detection latency across rows, and real cross-shard traffic beyond one
// shard.
func TestE14Shape(t *testing.T) {
	tbl := E14(true)
	if len(tbl.Rows) != 2 {
		t.Fatalf("quick E14 has %d rows, want 2", len(tbl.Rows))
	}
	col := func(name string) int {
		for i, c := range tbl.Columns {
			if c == name {
				return i
			}
		}
		t.Fatalf("column %q missing", name)
		return -1
	}
	events, detect, xmsgs, cuts := col("events"), col("detect"), col("xshard msgs"), col("cut links")
	for i := 1; i < len(tbl.Rows); i++ {
		if tbl.Rows[i][events] != tbl.Rows[0][events] {
			t.Errorf("event totals differ across shard counts: %s vs %s", tbl.Rows[0][events], tbl.Rows[i][events])
		}
		if tbl.Rows[i][detect] != tbl.Rows[0][detect] {
			t.Errorf("detection latency differs across shard counts: %s vs %s", tbl.Rows[0][detect], tbl.Rows[i][detect])
		}
	}
	if tbl.Rows[0][detect] == "not detected" {
		t.Error("failure was never detected")
	}
	// The multi-shard row must actually exercise the protocol.
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[xmsgs] == "0" || last[cuts] == "0" {
		t.Errorf("multi-shard row shows no cross-shard activity: xmsgs=%s cuts=%s", last[xmsgs], last[cuts])
	}
}
