# Tier-1 gate: `make ci` must stay green on every PR.
GO ?= go

# Coverage ratchet: ./internal/... statement coverage must stay at or above
# this floor. Raise it when coverage rises; never lower it to make a PR pass.
COVER_FLOOR ?= 91.5

.PHONY: ci vet build test race analyze fuzz-smoke bench-smoke bench-test tables-digest cover bench-shard test-shard experiments

ci: vet build test race analyze fuzz-smoke bench-smoke bench-test tables-digest

# gofmt -l prints the files it would rewrite; any name is a failure.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: these files need gofmt -w:" >&2; echo "$$unformatted" >&2; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused sharded-kernel suite under the race detector: the conservative
# protocol's ownership rules (stage-then-merge, owner-goroutine-only appends)
# are exactly what -race can falsify. `race` above already runs every test
# selected here, so `ci` does not depend on this target; it is the quick
# standalone entry point.
test-shard:
	$(GO) test -race -run 'Shard|Grouped' ./internal/sim/ ./internal/topo/ ./internal/core/ ./internal/cots/
	$(GO) test -race -run 'TestE14Shape' ./internal/experiments/

# Project-specific static analysis: simulation determinism (no wall clock,
# global rand, host-CPU probe or mutex in sim code), BER/SNMP error
# discipline, timer leaks, map-order determinism, and unusedexport — no
# internal/ name that only tests call (see DESIGN.md §8). cmd/analyze loads
# the nested bench/ module as a second root beside ./..., so a benchmark
# workload's call counts as a use. The allocation contract is measured by
# the AllocsPerRun floor tests that `test` runs.
analyze:
	$(GO) run ./cmd/analyze ./...

# A few seconds of coverage-guided fuzzing per target — enough to
# exercise the checked-in corpora plus a short exploration burst.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzBERRoundTrip$$' -fuzztime 3s ./internal/asn1ber
	$(GO) test -run '^$$' -fuzz '^FuzzMessageRoundTrip$$' -fuzztime 3s ./internal/snmp
	$(GO) test -run '^$$' -fuzz '^FuzzSketchInvariants$$' -fuzztime 3s ./internal/sketch
	$(GO) test -run '^$$' -fuzz '^FuzzTrapCoalesce$$' -fuzztime 3s ./internal/director
	$(GO) test -run '^$$' -fuzz '^FuzzSupervise$$' -fuzztime 3s ./internal/director
	$(GO) test -run '^$$' -fuzz '^FuzzEnvelopeLine$$' -fuzztime 3s ./internal/results
	$(GO) test -run '^$$' -fuzz '^FuzzClientUpdate$$' -fuzztime 3s ./internal/rtds
	$(GO) test -run '^$$' -fuzz '^FuzzPacketLedger$$' -fuzztime 3s ./internal/netsim
	$(GO) test -run '^$$' -fuzz '^FuzzResponder$$' -fuzztime 3s ./internal/nttcp
	$(GO) test -run '^$$' -fuzz '^FuzzDatabaseOracle$$' -fuzztime 3s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzServeMatchesProc$$' -fuzztime 3s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzServedSocket$$' -fuzztime 3s ./internal/netsim

# One iteration of every benchmark; go test carries on past a failing
# package and names each one.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The repository benchmark (bench/, BENCHMARK.json) is a Go module of its
# own, so `test` above does not see it. Its tests pin the internal/ API the
# workloads call and the experiment-table digest (bench/tables.sha256).
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The oracle of every performance change: the full suite at -shards 0, 1 and
# 8 and the -quick suite print the bytes whose SHA-256 is pinned in
# internal/experiments/testdata/tables.sha256. A mismatch names the run and
# the first differing table (see scripts/tables_digest.sh).
tables-digest:
	scripts/tables_digest.sh

# Statement coverage across ./internal/..., gated on COVER_FLOOR.
cover:
	$(GO) test -coverprofile=coverage.out ./internal/...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t + 0 >= f + 0) ? 0 : 1 }' || \
	{ echo "coverage $$total% fell below the $(COVER_FLOOR)% floor" >&2; exit 1; }

# E14's workload against the wall clock at 1/2/4/8 shards, one ns/op line
# each. Hardware-dependent by design — on a 1-CPU host expect no speedup.
bench-shard:
	$(GO) test -run '^$$' -bench 'BenchmarkShardedWorkload$$' -benchtime 5x ./internal/experiments/

experiments:
	$(GO) run ./cmd/experiments
