#!/bin/sh
# CPU profile of a benchmark of the root package: where a search's time
# goes, by function. The default rows are the four searches of the
# benchmark's explore_stateless workload, in process.
#   scripts/profile.sh [bench-regexp]
set -eu
cd "$(dirname "$0")/.."
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
go test -run '^$' -bench "${1:-BenchmarkBacktrack}" -benchtime 5x \
	-o "$dir/bench.test" -cpuprofile "$dir/cpu.prof" . >&2
go tool pprof -top -nodecount 40 "$dir/bench.test" "$dir/cpu.prof"
