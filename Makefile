GO ?= go

# Hot-path packages covered by the invariant assertions and race job.
# internal/telemetry rides along: its write side is deliberately
# unsynchronized (single-writer atomic words), so the race detector is the
# proof that the discipline holds. internal/wal and internal/fault ride
# along too: logger goroutines, the group-commit path, and crash-freezing
# registries are all cross-goroutine (docs/DURABILITY.md). internal/server
# is session goroutines × worker leases × drain (docs/SERVER.md), and
# internal/client is what its tests drive it with.
RACE_PKGS = ./internal/core/... ./internal/clock/... ./internal/storage/... ./internal/telemetry/... ./internal/trace/... ./internal/wal/... ./internal/fault/... ./internal/server/... ./internal/client/...

.PHONY: all build test lint vet check race bench bench-smoke bench-compare bench-json skew-smoke telemetry-smoke trace-smoke server-smoke torture docs-lint clean

# Packages with the hot-path microbenchmarks and allocation-budget tests
# (docs/PERFORMANCE.md).
BENCH_PKGS = ./internal/core/ ./internal/index/ ./internal/svindex/ ./internal/wal/

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The full analyzer suite (see docs/STATIC_ANALYSIS.md): four intra-function
# concurrency passes plus hotpathalloc, lockorder, failpointcover,
# metricdrift, tracedrift, and protodrift. Exits 1 on any finding, 2 on
# internal error; suppress only with a reviewed //lint:allow marker.
lint:
	$(GO) run ./cmd/cicada-lint ./...

# The consolidated static gate CI runs on every push: compile, go vet, the
# full cicada-lint suite, and the docs drift check.
check: build vet lint docs-lint

# Race detector plus the cicada_invariants assertion build over the hot-path
# packages. Short mode keeps this CI-sized; drop -short locally for the full
# stress runs.
# internal/index (B+-tree node frees under concurrent readers) races without
# the tag: CheckCommitOrder fires on a legal interleaving (ROADMAP item 1).
race:
	$(GO) test -race -short -tags cicada_invariants $(RACE_PKGS)
	$(GO) test -race -short ./internal/index/...

bench:
	$(GO) test -run '^$$' -bench . -benchmem $(BENCH_PKGS)

# PR gate: allocation-budget tests plus a one-iteration benchmark compile/run
# pass. Catches hot-path regressions without CI-length benchmark runs.
bench-smoke:
	$(GO) test -run 'AllocBudget|ExecAllocs|TestRepeated' . $(BENCH_PKGS) ./internal/server ./internal/client
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem $(BENCH_PKGS)
	$(GO) test -run '^$$' -bench PublicRun -benchtime 1x -benchmem .

# Scalability-regression gate (docs/PERFORMANCE.md): re-run the 2-thread
# uniform-YCSB sweep and fail if the speedup over 1 thread falls below the
# committed BENCH_ycsb.json seed's value (× the slack factor built into
# bench-compare). Writes a mutex-contention profile for CI to archive.
bench-compare:
	$(GO) run ./cmd/bench-compare -curve speedup -seed BENCH_ycsb.json \
		-experiment fig6a -engine Cicada -param 0 -threads 2 -mutexprofile /tmp/cicada-mutex.pb.gz

# Adaptive-contention gate (docs/PERFORMANCE.md "Adaptive contention
# management"): run the skew experiment's high-skew point with heat tracking
# on and off and fail if adaptation loses throughput or raises the
# validation/rts_early abort rate. Then a tiny skew sweep whose JSON report
# must carry the schema-v4 "skew" section.
skew-smoke:
	$(GO) run ./cmd/bench-compare -curve skew-adaptive -threads 2 -slack 0.85
	$(GO) run ./cmd/cicada-bench -engines Cicada -ramp 100ms -measure 300ms -threads 2 \
		-ycsb-records 50000 -json /tmp/cicada-skew-smoke.json skew
	jq -e '.meta.schema_version >= 4' /tmp/cicada-skew-smoke.json >/dev/null
	jq -e '.skew | length == 2' /tmp/cicada-skew-smoke.json >/dev/null
	jq -e '[.skew[].points | length] | min >= 1' /tmp/cicada-skew-smoke.json >/dev/null
	jq -e '.results[] | select(.engine == "Cicada") | .extra.total_commits > 0' /tmp/cicada-skew-smoke.json >/dev/null

# Refresh the committed perf-trajectory seeds: a multi-core thread sweep per
# workload, with the tps-vs-threads curves folded into the reports'
# "scalability" section (plus the adaptive-contention "skew" curves for
# YCSB); see docs/PERFORMANCE.md for how to read the files.
bench-json:
	$(GO) run ./cmd/cicada-bench -engines Cicada -ramp 200ms -measure 500ms -threads 1,2,4 -json BENCH_ycsb.json fig6a scaling skew
	$(GO) run ./cmd/cicada-bench -engines Cicada -ramp 200ms -measure 500ms -threads 1,2,4 -json BENCH_tpcc.json fig3c

# Benchmark-driven trace smoke: a short traced YCSB run whose -trace output
# must be valid Chrome trace-event JSON with events and hot keys.
trace-smoke:
	$(GO) run ./cmd/cicada-bench -engines Cicada -ramp 100ms -measure 300ms -threads 2 -trace /tmp/cicada-trace-smoke.json fig6a
	jq -e '.traceEvents | length > 0' /tmp/cicada-trace-smoke.json >/dev/null
	jq -e '.cicadaContention.top_keys | length > 0' /tmp/cicada-trace-smoke.json >/dev/null

# End-to-end server smoke (docs/SERVER.md): start cicada-server on an
# ephemeral port, drive YCSB-style load over real TCP via cicada-bench
# -server-addr, then SIGTERM and require a clean graceful drain.
server-smoke:
	./scripts/server_smoke.sh

# Telemetry-on vs telemetry-off throughput comparison; asserts the
# regression stays under the smoke bound (see docs/OBSERVABILITY.md).
telemetry-smoke:
	$(GO) test -tags telemetry_smoke -run TelemetryOverhead -v ./internal/bench/

# Seeded WAL crash-recovery torture (docs/DURABILITY.md): randomized crash
# points, torn writes, and recovery verified against lost-ack /
# resurrected-abort / fabricated-write oracles. ~1 s for 60 seeds.
torture:
	CICADA_TORTURE_SEEDS=60 $(GO) test -run TestTortureRecovery -count=1 ./internal/wal/

# Docs drift gate: every internal/ path and docs/*.md link mentioned in the
# documentation must exist in the tree.
docs-lint:
	./scripts/docs_lint.sh

clean:
	$(GO) clean ./...
