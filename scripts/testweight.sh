#!/bin/sh
# Test weight: where tier-1's wall time goes.
#
#   scripts/testweight.sh [go-test-json-file]
#
# With no argument, runs `go test -count=1 -json ./...` from the repo
# root, keeps its output in a temporary file (named first, on stderr,
# and not deleted) and prints the run's wall time. With an argument,
# reads that saved `go test -json` output instead. Either way it prints
# how many tests (top-level and subtests) passed and failed, the ten
# slowest top-level tests and the five slowest packages, in the layout of
# the ledger's test-weight sections.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
if [ $# -gt 1 ]; then
	echo "usage: scripts/testweight.sh [go-test-json-file]" >&2
	exit 2
fi
if [ $# -eq 1 ]; then
	in=$1
else
	in=$(mktemp "${TMPDIR:-/tmp}/testweight.XXXXXX")
	echo "testweight: go test -json output in $in" >&2
	start=$(date +%s.%N)
	(cd "$root" && go test -count=1 -json ./... >"$in") || true
	end=$(date +%s.%N)
	echo "$start $end" | awk '{ printf "Wall: %.1f s\n", $2 - $1 }'
fi

# The run's closing events: tests that passed or failed, with elapsed
# seconds, and packages (no Test field).
jq -r 'select(.Action == "pass" or .Action == "fail") |
	[.Action, .Package, (.Test // "-"), (.Elapsed // 0)] | @tsv' "$in" |
	awk -F '\t' '
	$3 != "-" { n[$1]++ }
	$3 != "-" && $3 !~ /\// { tests[++nt] = sprintf("%10.2f s  %-22s %s", $4, substr($2, index($2, "/") + 1), $3); tv[nt] = $4 }
	$3 == "-" { pkgs[++np] = sprintf("%10.2f s  %s", $4, $2); pv[np] = $4 }
	function top(lines, vals, k, limit,    i, j, t, used, best) {
		for (i = 1; i <= limit && i <= k; i++) {
			best = 0
			for (j = 1; j <= k; j++)
				if (!(j in used) && (best == 0 || vals[j] > vals[best])) best = j
			used[best] = 1
			print lines[best]
		}
	}
	END {
		printf "Tests: %d passed, %d failed\n", n["pass"], n["fail"]
		print "Ten slowest top-level tests:"
		top(tests, tv, nt, 10)
		print "Five slowest packages:"
		top(pkgs, pv, np, 5)
	}'
