package experiments

import "testing"

// TestE15Accuracy asserts the issue's acceptance bar on the quick table:
// the fixed-size sketch stays within 2% of exact full-history quantiles in
// every scenario while costing at least 10x less memory than the
// depth-1024 ring needed for comparable fidelity.
func TestE15Accuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment run")
	}
	tab := E15(true)
	t.Logf("\n%s", tab.String())
	scenarios := map[string]bool{}
	for _, row := range tab.Rows {
		scenario, estimator := row[0].Text, row[1].Text
		if scenario == "federated" {
			if e := valueOf(t, row[7]) / 100; e > 0.02 {
				t.Errorf("federated %s: p99 err %.4f > 2%%", estimator, e)
			}
			continue
		}
		if estimator != "sketch" {
			continue
		}
		scenarios[scenario] = true
		for col := 5; col <= 7; col++ {
			if e := valueOf(t, row[col]) / 100; e > 0.02 {
				t.Errorf("%s sketch err col %d = %.4f > 2%%", scenario, col, e)
			}
		}
		sketchBytes := valueOf(t, row[4])
		if hist1024 := 1024 * 64.0; sketchBytes*10 > hist1024 {
			t.Errorf("%s: sketch %g B not >=10x smaller than depth-1024 ring (%g B)", scenario, sketchBytes, hist1024)
		}
		if samples := valueOf(t, row[3]); samples <= 128 {
			t.Errorf("%s: mean %g samples/series <= BufCap; estimator never engaged", scenario, samples)
		}
	}
	for _, want := range []string{"hifi", "cots", "hybrid", "chaos"} {
		if !scenarios[want] {
			t.Errorf("no sketch row for scenario %q", want)
		}
	}
}

// TestE15ShardInvariant proves the federated roll-up is identical at 1, 2,
// 4 and 8 shards: every cell except the estimator label (which names the
// shard count) must match bit for bit.
func TestE15ShardInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment run")
	}
	strip := func(row []any) []any {
		out := append([]any(nil), row...)
		out[1] = "" // the merge@Nsh label is the only cell allowed to vary
		return out
	}
	ref := strip(e15FedRow(true, 1))
	for _, sc := range []int{2, 4, 8} {
		got := strip(e15FedRow(true, sc))
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("shards=%d: cell %d = %v, want %v", sc, i, got[i], ref[i])
			}
		}
	}
}
