#!/usr/bin/env bash
# results_gate.sh — the scenario pass/fail manifest of the durable results
# pipeline (DESIGN.md §14). Runs the comparison scenarios through
# cmd/experiments -scenario/-results and holds the archived JSONL streams
# to tolerances with cmd/results compare, k8s-netperf style: any compared
# metric outside tolerance exits non-zero and names the offender.
#
# Before trusting the gate, the script verifies the tripwire actually
# trips: a synthetic out-of-tolerance pair must fail the compare (naming
# the metric) and an in-tolerance pair must pass.
#
# Outputs land in results/ (gitignored): one JSONL stream per scenario
# run plus results_summary.json, which CI archives per Go version.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${RESULTS_DIR:-results}
QUICK=${RESULTS_QUICK:--quick}
mkdir -p "$OUT"

EXP="$OUT/experiments.bin"
RES="$OUT/results.bin"
go build -o "$EXP" ./cmd/experiments
go build -o "$RES" ./cmd/results

fail() { echo "results-gate: $*" >&2; exit 1; }

# --- 0. tripwire self-check -------------------------------------------------
# A synthetic pair diverging 50% on one metric must trip a 10% tolerance
# and name the offending metric; the same file against itself must pass.
trip_a="$OUT/trip_a.jsonl" trip_b="$OUT/trip_b.jsonl"
cat > "$trip_a" <<'EOF'
{"schema_version":1,"scenario":"trip-a","shards":0,"run":{"tool":"results_gate.sh"}}
{"schema_version":1,"scenario":"trip-a","shards":0,"record":{"batch":"p1","metric":"throughput","unit":"bits/s","at_ns":1000,"samples":[100,100,100,100]}}
EOF
cat > "$trip_b" <<'EOF'
{"schema_version":1,"scenario":"trip-b","shards":0,"run":{"tool":"results_gate.sh"}}
{"schema_version":1,"scenario":"trip-b","shards":0,"record":{"batch":"p1","metric":"throughput","unit":"bits/s","at_ns":1000,"samples":[150,150,150,150]}}
EOF
if out=$("$RES" compare -tolerance 10 "$trip_a" "$trip_b"); then
  fail "tripwire did NOT trip on a 50% divergence — the gate is not gating"
fi
echo "$out" | grep -q "p1/throughput mean" || fail "tripwire tripped but did not name the offending metric:
$out"
"$RES" compare -tolerance 10 "$trip_a" "$trip_a" > /dev/null \
  || fail "in-tolerance pair (a file against itself) must exit 0"
echo "results-gate: tripwire verified (divergence trips and is named; identical sets pass)"

# --- 1. fidelity: hybrid and cots must track the high-fidelity monitor ------
"$EXP" $QUICK -scenario fidelity-hifi   -results "$OUT/fidelity-hifi.jsonl"
"$EXP" $QUICK -scenario fidelity-cots   -results "$OUT/fidelity-cots.jsonl"
"$EXP" $QUICK -scenario fidelity-hybrid -results "$OUT/fidelity-hybrid.jsonl"
# COTS counter deltas see wire rate (headers) — a small structural gap.
"$RES" compare -tolerance 10 -fields mean,p50 -match throughput \
  "$OUT/fidelity-hifi.jsonl" "$OUT/fidelity-cots.jsonl" \
  || fail "cots throughput estimates diverged from the hifi monitor"
# The hybrid's own escalation bursts inflate its counter deltas (observer
# effect on the mean), but its median must stay with the hifi monitor.
"$RES" compare -tolerance 20 -fields p50 -match throughput \
  "$OUT/fidelity-hifi.jsonl" "$OUT/fidelity-hybrid.jsonl" \
  || fail "hybrid median throughput diverged from the hifi monitor"

# --- 2. resilience on/off must stay far apart on detection latency ----------
# This comparison is EXPECTED to diverge: if the two scenarios ever agree
# within 25%, the resilience layer has stopped earning its keep.
"$EXP" $QUICK -scenario resilience-on  -results "$OUT/resilience-on.jsonl"
"$EXP" $QUICK -scenario resilience-off -results "$OUT/resilience-off.jsonl"
if "$RES" compare -tolerance 25 -match "derived/detect-latency" \
    "$OUT/resilience-on.jsonl" "$OUT/resilience-off.jsonl" > "$OUT/resilience_compare.txt"; then
  cat "$OUT/resilience_compare.txt"
  fail "resilience on/off detection latencies agree within 25% — the layer no longer detects faster"
fi
grep -q "detect-latency" "$OUT/resilience_compare.txt" \
  || fail "resilience divergence did not name detect-latency"
echo "results-gate: resilience on/off detection latencies diverge as required"

# --- 3. shard transparency: 1-shard vs 8-shard runs, tolerance ZERO ---------
"$EXP" $QUICK -shards 1 -scenario resilience-on -results "$OUT/resilience-on-1shard.jsonl"
"$EXP" $QUICK -shards 8 -scenario resilience-on -results "$OUT/resilience-on-8shard.jsonl"
out=$("$RES" compare -tolerance 0 \
  "$OUT/resilience-on-1shard.jsonl" "$OUT/resilience-on-8shard.jsonl") \
  || { echo "$out"; fail "1-shard vs 8-shard envelopes are not identical at tolerance 0"; }
echo "$out" | grep -q "record streams bit-identical" \
  || fail "1-shard vs 8-shard record streams are not bit-identical:
$out"

# --- 4. director re-export stream + archived summary ------------------------
"$EXP" $QUICK -scenario tree-reexport -results "$OUT/tree-reexport.jsonl"
"$RES" summary "$OUT"/*.jsonl > "$OUT/results_summary.json"
rm -f "$trip_a" "$trip_b" "$OUT/resilience_compare.txt" "$EXP" "$RES"
echo "results-gate: PASS ($(ls "$OUT"/*.jsonl | wc -l) streams archived, summary in $OUT/results_summary.json)"
