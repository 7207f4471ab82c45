#!/usr/bin/env bash
# tables_digest.sh — the byte-identical-tables oracle of a performance
# change: cmd/experiments prints the same bytes whatever was made faster.
# Runs the full suite at -shards 0, 1 and 8 and the -quick suite, and holds
# the SHA-256 of each run's stdout to the two digests pinned in
# internal/experiments/testdata/tables.sha256 (line 1 full, line 2 quick).
# Update that file only together with a declared change of a table.
#
# A mismatch names the run and the first table that differs from an output
# of the same suite that has the pinned digest: another of this
# invocation's runs, or the copy the last matching run left in
# results/tables/ (gitignored) — so run this once before changing anything.
set -euo pipefail
cd "$(dirname "$0")/.."

PIN=internal/experiments/testdata/tables.sha256
OUT=results/tables
mkdir -p "$OUT"
go build -o "$OUT/experiments.bin" ./cmd/experiments

digest() { sha256sum < "$1" | cut -d' ' -f1; }
pinned() { if [ "$1" = full ]; then sed -n 1p "$PIN"; else sed -n 2p "$PIN"; fi; }

# first_diff REF RUN: the heading of the first table of RUN with a line that
# differs from REF.
first_diff() {
  awk 'NR == FNR { ref[NR] = $0; next }
       /^[EA][0-9]+ — / { heading = $0 }
       $0 != ref[FNR] { print heading; found = 1; exit }
       END { if (!found) print "(output ends early, in or after) " heading }' "$1" "$2"
}

failed=()
for run in "full -shards 0" "full -shards 1" "full -shards 8" "quick -quick"; do
  suite=${run%% *} flags=${run#* }
  got="$OUT/$suite${flags// /}.txt"
  # shellcheck disable=SC2086 # flags is a flag and its value
  "$OUT/experiments.bin" $flags > "$got" 2> "$OUT/stderr.txt" || { cat "$OUT/stderr.txt" >&2; exit 1; }
  if [ "$(digest "$got")" = "$(pinned "$suite")" ]; then
    cp "$got" "$OUT/$suite.ok.txt"
    echo "tables-digest: experiments $flags: ok"
  else
    failed+=("$run")
  fi
done

for run in ${failed[@]+"${failed[@]}"}; do
  suite=${run%% *} flags=${run#* }
  got="$OUT/$suite${flags// /}.txt" ref="$OUT/$suite.ok.txt"
  echo "tables-digest: experiments $flags: stdout is $(digest "$got"), $PIN says $(pinned "$suite")" >&2
  if [ -f "$ref" ] && [ "$(digest "$ref")" = "$(pinned "$suite")" ]; then
    echo "tables-digest:   first differing table: $(first_diff "$ref" "$got")" >&2
  else
    echo "tables-digest:   no output with the pinned digest at hand to name the table (a matching run leaves one in $OUT/)" >&2
  fi
done
[ ${#failed[@]} -eq 0 ]
