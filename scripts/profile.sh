#!/bin/sh
# CPU profile of a benchmark of the root package: where a search's or a
# closing's time goes, by function. The rows run in process:
# BenchmarkBacktrack (the default) is the four sequential searches of
# explore_stateless, BenchmarkStateful the six fixed items of
# explore_stateful, BenchmarkClose the five items close_scale closes.
#   scripts/profile.sh [bench-regexp]
set -eu
cd "$(dirname "$0")/.."
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
go test -run '^$' -bench "${1:-BenchmarkBacktrack}" -benchtime 5x \
	-o "$dir/bench.test" -cpuprofile "$dir/cpu.prof" . >&2
go tool pprof -top -nodecount 40 "$dir/bench.test" "$dir/cpu.prof"
