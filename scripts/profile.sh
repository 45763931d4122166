#!/bin/sh
# CPU profile of a benchmark of the root package: where a search's or a
# closing's time goes, by function. The rows run in process:
# BenchmarkBacktrack (the default) is the four sequential searches of
# explore_stateless, BenchmarkStateful the six fixed items of
# explore_stateful, BenchmarkClose the five items close_scale closes.
# With -cli, the profile is instead of one cold verisoft run, taken by
# its -cpuprofile flag: the end-to-end view (process start, reading
# and closing the program, the search, the exit) that the in-process
# benchmarks miss, since they never pay the process floor. With
# -reclose, the same of one cold reclose run: close_scale runs reclose
# -stats one cold process per item, and pays the collector's share of a
# fresh heap that BenchmarkClose's warm in-process heap hides.
#   scripts/profile.sh [bench-regexp]
#   scripts/profile.sh -cli [verisoft flags] file.mc
#   scripts/profile.sh -reclose [reclose flags] file.mc
set -eu
here=$(pwd)
cd "$(dirname "$0")/.."
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
if [ "${1:-}" = "-cli" ]; then
	shift
	go build -o "$dir/verisoft" ./cmd/verisoft
	# Exit codes 3 and 4 are verdicts (incidents, an incomplete search).
	(cd "$here" && "$dir/verisoft" -cpuprofile "$dir/cpu.prof" "$@") >&2 || test $? -ge 3
	go tool pprof -top -nodecount 40 "$dir/verisoft" "$dir/cpu.prof"
	exit
fi
if [ "${1:-}" = "-reclose" ]; then
	shift
	go build -o "$dir/reclose" ./cmd/reclose
	(cd "$here" && "$dir/reclose" -cpuprofile "$dir/cpu.prof" "$@") >/dev/null
	go tool pprof -top -nodecount 40 "$dir/reclose" "$dir/cpu.prof"
	exit
fi
go test -run '^$' -bench "${1:-BenchmarkBacktrack}" -benchtime 5x \
	-o "$dir/bench.test" -cpuprofile "$dir/cpu.prof" . >&2
go tool pprof -top -nodecount 40 "$dir/bench.test" "$dir/cpu.prof"
