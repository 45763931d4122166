#!/bin/sh
# Non-test Go lines (wc -l of every .go file not named *_test.go) per
# package directory, then the total outside benchmark/ and the total of
# the *_test.go files there — the two numbers the simplicity entries in
# CHANGES.md and ROADMAP.md quote. Run from anywhere; pass a directory
# to count another checkout (e.g. a clone of the parent).
set -eu

cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' ! -path './benchmark/*' ! -path './.bench_build/*' |
	sort |
	xargs wc -l |
	awk '$2 ~ /_test\.go$/ { tests += $1; next }
	$2 != "total" {
		dir = $2
		sub(/^\.\//, "", dir)
		if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
		lines[dir] += $1
		total += $1
	}
	END {
		for (d in lines) printf "%7d %s\n", lines[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d total outside benchmark/\n", total
		printf "%7d lines of *_test.go outside benchmark/\n", tests
	}'
