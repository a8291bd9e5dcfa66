#!/bin/sh
# Print the benchmark's history, bench-history/PR-*.json (written by
# scripts/bench-entry.sh), one row per workload, metric and PR:
#
#   scripts/trajectory.sh [workload [metric]]
#
# A row gives the median over the entry's seeds, each seed's value and the
# session that measured it. A metric the commit's perf did not report
# reads "-"; a workload that failed, or a commit that did not build, shows
# why instead. Counts (allocs_per_result, kernel_steps_per_result,
# wired_msgs_per_result, live_bytes_per_host) compare across sessions;
# calibrated rates (norm_results_per_s) only between rows of one session.
set -eu
cd "$(dirname "$0")/.."
want_w=${1:-} want_m=${2:-}
files=$(ls bench-history/PR-*.json 2>/dev/null | sed 's/.*PR-\([0-9]*\)\.json/\1 &/' | sort -n | cut -d' ' -f2)
if [ -z "$files" ]; then
	echo "trajectory: no entries under bench-history/" >&2
	exit 1
fi
# The entries are line-oriented: one field, workload or metric per line.
awk -v want_w="$want_w" -v want_m="$want_m" '
	function unquote(s) { sub(/^[^:]*: *"/, "", s); sub(/",?$/, "", s); gsub(/\\"/, "\"", s); return s }
	function median(list,    v, n, i, j, t) {
		n = split(list, v, / /)
		for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] + 0 > v[j] + 0; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
		return (n % 2) ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
	}
	FNR == 1 { e++; w = "" }
	/^  "pr":/ { pr[e] = $2 + 0 }
	/^  "session":/ { session[e] = unquote($0) }
	/^  "error":/ { broken[e] = unquote($0) }
	/^    "[a-z_]+": \{/ {
		w = $1; gsub(/[":]/, "", w)
		if (!(w in seenW)) { seenW[w] = 1; works[++nw] = w }
	}
	/^      "error":/ { failed[e, w] = unquote($0) }
	/^      "[a-z0-9_]+": \[/ {
		m = $1; gsub(/[":]/, "", m)
		if (!(m in seenM)) { seenM[m] = 1; mets[++nm] = m }
		v = $0; sub(/^[^[]*\[/, "", v); sub(/\].*/, "", v); gsub(/,/, "", v)
		val[e, w, m] = v
	}
	END {
		printf "%-15s %-24s %4s  %-14s %-44s %s\n", "workload", "metric", "PR", "median", "per seed", "session"
		for (i = 1; i <= nw; i++) {
			w = works[i]
			if (want_w != "" && w != want_w) continue
			for (j = 1; j <= nm; j++) {
				m = mets[j]
				if (want_m != "" && m != want_m) continue
				for (k = 1; k <= e; k++) {
					if (k in broken) { printf "%-15s %-24s %4d  %s\n", w, m, pr[k], broken[k]; continue }
					if ((k, w) in failed) { printf "%-15s %-24s %4d  failed: %s\n", w, m, pr[k], failed[k, w]; continue }
					v = val[k, w, m]
					if (v == "" || v ~ /null/) { printf "%-15s %-24s %4d  %-14s %-44s %s\n", w, m, pr[k], "-", "-", session[k]; continue }
					n = split(v, x, / /); shown = ""
					for (s = 1; s <= n; s++) shown = shown (s > 1 ? " " : "") sprintf("%.6g", x[s])
					printf "%-15s %-24s %4d  %-14.6g %-44s %s\n", w, m, pr[k], median(v), shown, session[k]
				}
			}
		}
	}' $files
