#!/bin/sh
# Make one entry of the benchmark's history, bench-history/PR-<pr>.json:
#
#   scripts/bench-entry.sh <ref> <pr> <session> [seeds]
#
# The commit <ref> is exported (git archive; a ref of "." exports the
# working tree) under .bench_build/history/<pr>/ and its own ./perf is
# built there, so an entry is what that commit measured of itself. Each
# of the four workloads runs once per seed (default "1 2 3") for the
# commit's own run length, without the traced run. The entry records,
# per workload, every end-to-end metric BENCHMARK.json declares and
# raw.kernel_steps per result, one value per seed (null where the
# commit's perf does not report it), the commit (HEAD's, followed by "+",
# for a working tree) and the session that made it:
# calibrated rates compare only between the entries of one session, while
# counts (allocs_per_result, kernel steps, wired_msgs_per_result,
# live_bytes_per_host) compare across sessions. A commit that does not
# build, or a workload its perf does not know or fails, is recorded with
# the reason instead. scripts/trajectory.sh reads the entries.
set -eu
if [ $# -lt 3 ]; then
	echo "usage: $0 <ref> <pr> <session> [seeds]" >&2
	exit 2
fi
ref=$1 pr=$2 session=$3 seeds=${4:-1 2 3}
cd "$(dirname "$0")/.."
metrics=$(tr -d ' \n\t' <BENCHMARK.json | sed -n 's/.*"end_to_end":\[\([^]]*\)\].*/\1/p' |
	tr '}' '\n' | sed -n 's/.*"name":"\([^"]*\)".*/\1/p')
workloads="cell_mobility lossy_radio fault_recovery region_scale"
root=$PWD/.bench_build/history/$pr
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp" GOFLAGS=-mod=mod
mkdir -p "$GOTMPDIR" bench-history
rm -rf "$root"
mkdir -p "$root/src"
if [ "$ref" = . ]; then
	git ls-files -z --cached --others --exclude-standard | tar -c --null -T - 2>/dev/null | tar -x -C "$root/src"
	commit=$(git rev-parse --short HEAD)+
else
	git archive "$ref" | tar -x -C "$root/src"
	commit=$(git rev-parse --short "$ref")
fi
out=bench-history/PR-$pr.json

# quote prints its argument as a JSON string.
quote() { printf '"%s"' "$(printf '%s' "$1" | tr '\n\t' '  ' | sed 's/\\/\\\\/g; s/"/\\"/g')"; }

built=yes
err=$(cd "$root/src" && go build -o "$root/perfbench" ./perf 2>&1) || built=no
{
	printf '{\n  "pr": %s,\n  "commit": "%s",\n  "session": %s,\n' "$pr" "$commit" "$(quote "$session")"
	printf '  "seeds": [%s],\n' "$(echo $seeds | sed 's/ /, /g')"
	if [ $built = no ]; then
		workloads=""
		printf '  "error": %s,\n' "$(quote "does not build: $(printf '%s\n' "$err" | head -n 3)")"
	fi
	printf '  "workloads": {\n'
	sep=""
	for w in $workloads; do
		printf '%s    "%s": {\n' "$sep" "$w"
		sep=",
"
		: >"$root/$w.lines"
		failed=""
		for s in $seeds; do
			if ! (cd "$root/src" && "$root/perfbench" -workload "$w" -seed "$s" -trace 0) >"$root/$w.$s.json" 2>"$root/$w.$s.err"; then
				failed="seed $s: $(tail -n 2 "$root/$w.$s.err")"
				break
			fi
			line=$(tail -n 1 "$root/$w.$s.json")
			steps=$(sed -n 's/^ *"kernel_steps": \([0-9]*\),*$/\1/p' "$root/$w.$s.json")
			results=$(sed -n 's/^ *"results": \([0-9]*\),*$/\1/p' "$root/$w.$s.json")
			per=null
			if [ -n "$steps" ] && [ -n "${results:-}" ] && [ "$results" -gt 0 ]; then
				per=$(awk -v a="$steps" -v b="$results" 'BEGIN { printf "%.6g", a / b }')
			fi
			printf '%s kernel_steps_per_result=%s\n' "$(for m in $metrics; do
				v=$(printf '%s\n' "$line" | sed -n 's/.*"'$m'":{"value":\([0-9.eE+-]*\).*/\1/p')
				printf '%s=%s ' "$m" "${v:-null}"
			done)" "$per" >>"$root/$w.lines"
		done
		if [ -n "$failed" ]; then
			printf '      "error": %s\n    }' "$(quote "$failed")"
			continue
		fi
		# One line per metric: the seeds' values in seed order.
		awk '
			{ for (i = 1; i <= NF; i++) { split($i, kv, "="); if (NR == 1) order[++n] = kv[1]; v[kv[1]] = v[kv[1]] (NR > 1 ? ", " : "") kv[2] } }
			END { for (i = 1; i <= n; i++) printf "      \"%s\": [%s]%s\n", order[i], v[order[i]], (i < n ? "," : "") }
		' "$root/$w.lines"
		printf '    }'
	done
	[ -z "$sep" ] || printf '\n'
	printf '  }\n}\n'
} >"$out.tmp"
mv "$out.tmp" "$out"
echo "bench-entry: wrote $out"
