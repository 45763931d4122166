#!/bin/sh
# Alternating benchmark pairs: REV (the parent) against the working tree
# (the change).
#
#   scripts/pairs.sh REV WORKLOAD SEED N
#
# Extracts `git archive REV` and the working tree's files (tracked and
# untracked, minus what .gitignore ignores) into two temporary
# directories, then runs N pairs of
# `go run ./benchmark -workload WORKLOAD -seed SEED -out f.json` in them,
# one run of each side per pair: even-numbered pairs (counting from 0)
# run the parent first, odd ones the change first. It reads only the run
# documents, and prints, per end-to-end metric of the change's
# BENCHMARK.json, both sides' values in pair order, the medians and
# their change in percent, in how many pairs the change was better (ties
# count for neither side) and whether the change's median is within the
# metric's bound of the parent's; then the parent's quartile distance
# (Python's exclusive quartiles, as benchmark/stats.go computes them) and
# whether the claim rule holds for the metric: the change better in at
# least 9 of 10 pairs, and its median further from the parent's, in the
# better direction, than that distance. Then whether every run was
# correct, the largest failed_share and the distinct transitions_total
# values, each run's host_slowness, and last each item's median_ms per
# side (the median over the pairs of the run documents' item rows, raw
# timings that move with host_slowness). The documents and the runs'
# output stay in the directory printed first; nothing is deleted.
set -eu

if [ $# -ne 4 ]; then
	echo "usage: scripts/pairs.sh REV WORKLOAD SEED N" >&2
	exit 2
fi
rev=$1 workload=$2 seed=$3 n=$4
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
echo "pairs: run documents in $tmp" >&2

mkdir "$tmp/parent" "$tmp/change"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"
(cd "$root" && git ls-files -z -c -o --exclude-standard |
	xargs -0 sh -c 'for f; do [ -f "$f" ] && printf "%s\0" "$f"; done; :' sh |
	tar -c --null -T - -f -) | tar -x -C "$tmp/change"

run() { # side pair
	echo "pairs: pair $2, $1" >&2
	(cd "$tmp/$1" && go run ./benchmark -workload "$workload" -seed "$seed" \
		-out "$tmp/$1-$2.json" >"$tmp/$1-$2.log" 2>&1) ||
		echo "pairs: $1 run of pair $2 exited $? (see $tmp/$1-$2.log)" >&2
}
i=0
while [ "$i" -lt "$n" ]; do
	if [ $((i % 2)) -eq 0 ]; then
		run parent "$i"
		run change "$i"
	else
		run change "$i"
		run parent "$i"
	fi
	i=$((i + 1))
done

# One line per metric and side: name better bound v_0 … v_{n-1}, values
# in pair order ("null" for a run without a document or the metric).
docs() { # side
	i=0
	while [ "$i" -lt "$n" ]; do
		f="$tmp/$1-$i.json"
		if [ -f "$f" ]; then cat "$f"; else echo '{"runs":[]}'; fi
		i=$((i + 1))
	done
}
runs='[.[] | [.runs[] | select(.workload == $w and (.traced | not))][0]]'
metrics() { # side
	docs "$1" | jq -s -r --arg w "$workload" --arg side "$1" --slurpfile spec "$tmp/change/BENCHMARK.json" "$runs"' as $r |
		$spec[0].end_to_end[] | . as $m |
		"\($side) \($m.name) \($m.better) \($m.bound) \([$r[] | .metrics[$m.name].value // null] | map(tostring) | join(" "))"'
}
{
	metrics parent
	metrics change
	{ docs parent; docs change; } | jq -s -r --arg w "$workload" "$runs"' |
		"exact \(all(.[]; . != null and .correct)) \(map(.failed_share // 1) | max) \(map(.transitions_total) | unique | map(tostring) | join(","))"'
	for side in parent change; do
		docs "$side" | jq -s -r --arg w "$workload" --arg side "$side" "$runs"' |
			"host \($side) \(map(.host_slowness // null | if . == null then "-" else (. * 1000 | round / 1000 | tostring) end) | join(" "))",
			(.[] | select(. != null) | .items[]? | "item \($side) \(.name) \(.median_ms)")'
	done
} | awk -v workload="$workload" -v seed="$seed" -v n="$n" '
function median(a, k,    s, i, j, t) {
	for (i = 1; i <= k; i++) s[i] = a[i]
	for (i = 2; i <= k; i++)
		for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
	return k % 2 ? s[(k + 1) / 2] : (s[k / 2] + s[k / 2 + 1]) / 2
}
$1 == "parent" || $1 == "change" {
	if (!($2 in better)) order[++metrics] = $2
	better[$2] = $3; bound[$2] = $4
	for (i = 5; i <= NF; i++) v[$2, $1, i - 4] = $i
	next
}
# quartiles as statistics.quantiles(a, n=4) in Python, the exclusive
# method of benchmark/stats.go: sets q1 and q3.
function quartiles(a, k,    s, i, j, t, m) {
	for (i = 1; i <= k; i++) s[i] = a[i]
	for (i = 2; i <= k; i++)
		for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
	if (k < 2) { q1 = q3 = s[1]; return }
	q1 = qat(s, k, 1); q3 = qat(s, k, 3)
}
function qat(s, k, i,    m, j, d) {
	m = k + 1; j = int(i * m / 4)
	if (j < 1) j = 1
	if (j > k - 1) j = k - 1
	d = i * m - j * 4
	return (s[j] * (4 - d) + s[j + 1] * d) / 4
}
$1 == "exact" { correct = $2 == "true" ? "True" : "False"; failed = $3; trans = $4; next }
$1 == "host" { $1 = ""; host[$2] = $0; next }
$1 == "item" {
	if (!(($3) in seen)) { seen[$3] = 1; items[++nitems] = $3 }
	iv[$3, $2, ++ik[$3, $2]] = $4 + 0
}
END {
	printf "== %s seed %s: %d pairs (order: even pairs parent first, odd change first)\n", workload, seed, n
	for (m = 1; m <= metrics; m++) {
		name = order[m]
		kp = kc = wins = 0
		for (i = 1; i <= n; i++) {
			p = v[name, "parent", i]; c = v[name, "change", i]
			if (p != "null") pv[++kp] = p + 0
			if (c != "null") cv[++kc] = c + 0
			if (p == "null" || c == "null") continue
			if (better[name] == "lower" ? c + 0 < p + 0 : c + 0 > p + 0) wins++
		}
		ps = cs = ""
		for (i = 1; i <= n; i++) {
			p = v[name, "parent", i]; c = v[name, "change", i]
			ps = ps " " (p == "null" ? "-" : sprintf("%.4g", p))
			cs = cs " " (c == "null" ? "-" : sprintf("%.4g", c))
		}
		printf "  %-16s parent%s\n", name, ps
		printf "  %-16s change%s\n", "", cs
		if (kp == 0 || kc == 0) { printf "  %-16s no median: a side has no value\n", ""; continue }
		mp = median(pv, kp); mc = median(cv, kc)
		pct = mp != 0 ? 100 * (mc - mp) / mp : 0
		lim = better[name] == "lower" ? mc <= mp * (1 + bound[name]) : mc >= mp * (1 - bound[name])
		printf "  %-16s median %.4g -> %.4g (%+.1f %%), change better in %d/%d; bound %g %%: %s\n",
			"", mp, mc, pct, wins, n, 100 * bound[name], lim ? "within" : "OUTSIDE"
		quartiles(pv, kp)
		qd = q3 - q1; gap = (better[name] == "lower") ? mp - mc : mc - mp
		printf "  %-16s claim rule: better in %d/%d (need >= 9/10), medians %.4g apart, parent quartile distance %.4g: %s\n",
			"", wins, n, gap, qd, (wins * 10 >= 9 * n && gap > qd) ? "HOLDS" : "fails"
	}
	printf "  correct in all runs: %s; failed_share max %s; transitions_total [%s]\n", correct, failed, trans
	printf "  host_slowness (the divisor of every timing of a run), in pair order:\n"
	printf "    parent%s\n    change%s\n", substr(host["parent"], length("parent") + 2), substr(host["change"], length("change") + 2)
	if (nitems) printf "  item median_ms (median over pairs, raw: not divided by host_slowness)  parent -> change\n"
	for (m = 1; m <= nitems; m++) {
		name = items[m]
		for (i = 1; i <= ik[name, "parent"]; i++) pv[i] = iv[name, "parent", i]
		for (i = 1; i <= ik[name, "change"]; i++) cv[i] = iv[name, "change", i]
		if (!ik[name, "parent"] || !ik[name, "change"]) continue
		mp = median(pv, ik[name, "parent"]); mc = median(cv, ik[name, "change"])
		printf "  %-40s %8.4g -> %8.4g (%+.1f %%)\n", name, mp, mc, (mp != 0) ? 100 * (mc - mp) / mp : 0
	}
}'
