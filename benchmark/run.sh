#!/usr/bin/env bash
# Builds the benchmark from source and runs it. BENCHMARK.json's command is
# `bash benchmark/run.sh`; the driver appends
# --workload <name> --seed <n> --seconds <s> --trace <0|1>.
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build/: the Go build cache, the binary, and TMPDIR (so the WAL
# directories that embed_durable creates under os.TempDir() land there too).
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
export TMPDIR="$out/tmp"
go build -C benchmark -o "$out/cicada-benchmark" .
exec "$out/cicada-benchmark" "$@"
