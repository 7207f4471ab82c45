package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// runAllTables renders the quick suite with the given kernel construction
// mode and returns its tables in All() order. Every table's shape is
// checked in a subtest named after its experiment: matching ID, at least
// one row, every row as wide as the columns, and a paper claim. Two
// workers keep the render short; the tables do not depend on the worker
// count (TestRunAllParallelDeterminism).
func runAllTables(t *testing.T, shards int) []string {
	t.Helper()
	SetShards(shards)
	defer SetShards(0)
	var out []string
	for _, r := range RunAll(All(), true, 2) {
		id, table := r.Experiment.ID, r.Table
		if table == nil {
			t.Fatalf("%s returned no table at shards=%d", id, shards)
		}
		t.Run(id, func(t *testing.T) {
			if table.ID != id {
				t.Fatalf("table ID %q != %q", table.ID, id)
			}
			if len(table.Rows) == 0 {
				t.Fatal("no rows")
			}
			for i, row := range table.Rows {
				if len(row) != len(table.Columns) {
					t.Fatalf("row %d has %d cells, want %d", i, len(row), len(table.Columns))
				}
			}
			if table.Paper == "" {
				t.Fatal("missing paper claim")
			}
		})
		out = append(out, table.String())
	}
	return out
}

// quickDigest hashes the quick suite's tables as cmd/experiments -quick
// prints them, joined by a blank line, and returns it with line 2 of
// testdata/tables.sha256, the digest `make tables-digest` holds -quick to.
func quickDigest(t *testing.T, tables []string) (got, pinned string) {
	t.Helper()
	pin, err := os.ReadFile("testdata/tables.sha256")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(strings.Join(tables, "\n")))
	return hex.EncodeToString(sum[:]), strings.Split(string(pin), "\n")[1]
}

// TestAllExperimentsRunQuick is the quick-suite oracle: one render on the
// plain kernel, every table's shape checked, and the whole suite hashed
// against its pin. It is the one render `go test -short` makes.
func TestAllExperimentsRunQuick(t *testing.T) {
	if got, want := quickDigest(t, runAllTables(t, 0)); got != want {
		t.Errorf("quick tables hash to %s, testdata/tables.sha256 line 2 says %s; `make tables-digest` names the first differing table", got, want)
	}
}

// TestSingleShardBitIdentical holds a 1-shard render of the quick suite
// to the plain kernel's pin.
func TestSingleShardBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite render")
	}
	checkShardTransparent(t, 1)
}

// TestMultiShardDeterminism holds a 3-shard render of the quick suite to
// the same pin. Every registered experiment is shard-agnostic — its
// workload runs on shard 0 with idle peers (E14 sweeps its own shard
// counts internally) — so the windowed scheduler must be invisible in the
// output.
func TestMultiShardDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite render")
	}
	checkShardTransparent(t, 3)
}

// checkShardTransparent renders the quick suite on the given number of
// shards and hashes it against the pin. Only on a miss does it also render
// the plain-kernel suite, to name each table the shard count changed.
func checkShardTransparent(t *testing.T, shards int) {
	t.Helper()
	sharded := runAllTables(t, shards)
	got, want := quickDigest(t, sharded)
	if got == want {
		return
	}
	plain := runAllTables(t, 0)
	named := false
	for i, e := range All() {
		if sharded[i] != plain[i] {
			named = true
			t.Errorf("%s table depends on shard count:\n--- plain kernel ---\n%s\n--- %d shards ---\n%s", e.ID, plain[i], shards, sharded[i])
		}
	}
	if !named {
		t.Errorf("%d-shard tables hash to %s, testdata/tables.sha256 line 2 says %s; the plain kernel renders the same tables, so they moved on every kernel (see TestAllExperimentsRunQuick)", shards, got, want)
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
