#!/bin/sh
# Benchmark harness: runs the closing (dataflow analysis, transformation,
# 5ESS case study), interpreter and exploration benchmarks — the root
# package's, plus internal/explore's BenchmarkSchedule, which needs the
# engine's internals — with memory statistics, 5 repetitions each
# (benchstat wants multiple samples), and records the results twice —
# BENCH_explore.txt is the raw benchstat-compatible text, and
# BENCH_explore.json is a structured digest produced by
# scripts/benchjson (env header + per-line metrics + the raw lines).
#
# Knobs: COUNT (repetitions, default 5), BENCHTIME (per-benchmark
# budget, default 1s).
set -eu

cd "$(dirname "$0")/.."

COUNT="${COUNT:-5}"
BENCHTIME="${BENCHTIME:-1s}"
PATTERN='BenchmarkAnalyze|BenchmarkClosingScaling|BenchmarkFiveESSClose|BenchmarkInterpreter|BenchmarkForkVsReplay|BenchmarkBacktrack|BenchmarkSchedule|BenchmarkStateKey|BenchmarkCheckpointCadence|BenchmarkParallelExplore|BenchmarkFiveESSExplore|BenchmarkShardedCache|BenchmarkDPOR|BenchmarkLiveness'

go test -run '^$' -bench "$PATTERN" -benchmem \
	-count="$COUNT" -benchtime="$BENCHTIME" -timeout=60m . ./internal/explore \
	| tee BENCH_explore.txt
go run ./scripts/benchjson <BENCH_explore.txt >BENCH_explore.json
echo "wrote BENCH_explore.txt and BENCH_explore.json"
