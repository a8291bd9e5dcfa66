#!/bin/sh
# A/B one perf workload between two commits, the way a claimed gain is
# judged (choosing-metrics §8):
#
#   scripts/perf-ab.sh <base-ref> <head-ref> <workload> [pairs [seed0 [metric]]]
#
# Both ./perf binaries are built once, from `git archive` exports under
# .bench_build/ab/ (a ref of "." exports the working tree instead, for a
# change not yet committed). Then [pairs] (default 10) pairs of runs,
# base and head alternating with the order flipped every pair and a fresh
# input seed per pair (seed0+1, seed0+2, …; seed0 defaults to 100 — pass
# another to judge a change on seeds it was not written against), each
# for BENCHMARK.json's run length. It prints every pair's reading of the
# claimed metric — any end-to-end metric BENCHMARK.json declares, which
# also says whether lower or higher is better; norm_results_per_s by
# default — each side's median and quartiles, and the verdict: head wins
# at least nine pairs in ten (ties count for neither) and the medians
# differ, in the better direction, by more than the base's own
# interquartile range. A metric whose unit is "count" may carry a claim
# only if it repeats exactly (choosing-metrics §8), so for one each side
# runs every seed twice and the script says whether the two readings
# agreed. Every pair also says whether base and head ran the same
# simulation: raw.kernel_steps, raw.results and raw.protocol_violations
# equal on the seed (identical) or not (DIFFERS) — what a change
# claiming bit-identical behaviour has to show. Each run's full report
# is kept as .bench_build/ab/<side>.<seed>.json. Then, from the pairs'
# runs, every end-to-end metric BENCHMARK.json declares: both sides'
# medians, the change in %, and
# WORSE where head is worse than base by more than that metric's bound —
# what a change that claims no gain has to show. It reads the result line
# perf prints and changes nothing under perf/.
set -eu
if [ $# -lt 3 ]; then
	echo "usage: $0 <base-ref> <head-ref> <workload> [pairs [seed0 [metric]]]" >&2
	exit 2
fi
base_ref=$1 head_ref=$2 workload=$3 pairs=${4:-10} seed0=${5:-100} metric=${6:-norm_results_per_s}
cd "$(dirname "$0")/.."
decl=$(tr -d ' \n\t' <BENCHMARK.json | sed -n 's/.*"end_to_end":\[\([^]]*\)\].*/\1/p' | tr '}' '\n' | grep "\"name\":\"$metric\"" || true)
if [ -z "$decl" ]; then
	echo "perf-ab: BENCHMARK.json declares no end-to-end metric \"$metric\"" >&2
	exit 2
fi
better=$(printf '%s' "$decl" | sed -n 's/.*"better":"\([a-z]*\)".*/\1/p')
unit=$(printf '%s' "$decl" | sed -n 's/.*"unit":"\([^"]*\)".*/\1/p')
root=$PWD/.bench_build/ab
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp" GOFLAGS=-mod=mod
mkdir -p "$GOTMPDIR"

build() { # side ref
	rm -rf "$root/$1"
	mkdir -p "$root/$1"
	if [ "$2" = . ]; then
		git ls-files -z --cached --others --exclude-standard | tar -c --null -T - 2>/dev/null | tar -x -C "$root/$1"
	else
		git archive "$2" | tar -x -C "$root/$1"
	fi
	(cd "$root/$1" && go build -o "$root/$1.perfbench" ./perf)
}
build base "$base_ref"
build head "$head_ref"

run() { # side seed [file the result line is kept in]
	report=$root/$1.$2.json
	if ! (cd "$root/$1" && "$root/$1.perfbench" -workload "$workload" -seed "$2" -trace 0) >"$report"; then
		echo "perf-ab: $1 run failed (seed $2), report in $report" >&2
		exit 1
	fi
	out=$(tail -n 1 "$report")
	printf '%s\n' "$out" >>"${3:-$root/$1.lines}"
	v=$(printf '%s\n' "$out" | sed -n 's/.*"'$metric'":{"value":\([0-9.eE+-]*\).*/\1/p')
	if [ -z "$v" ]; then
		echo "perf-ab: $1 run printed no $metric (seed $2)" >&2
		exit 1
	fi
	printf '%s\n' "$v"
}

counts() { # side seed -> "kernel_steps results protocol_violations" of its report
	for key in kernel_steps results protocol_violations; do
		sed -n 's/^ *"'$key'": \([0-9-]*\),*$/\1/p' "$root/$1.$2.json"
	done | paste -sd ' ' -
}

: >"$root/base.runs"
: >"$root/head.runs"
: >"$root/base.lines"
: >"$root/head.lines"
: >"$root/repeats"
: >"$root/identical"
i=1
while [ "$i" -le "$pairs" ]; do
	seed=$((seed0 + i))
	if [ $((i % 2)) -eq 1 ]; then
		b=$(run base "$seed") h=$(run head "$seed")
	else
		h=$(run head "$seed") b=$(run base "$seed")
	fi
	echo "$b" >>"$root/base.runs"
	echo "$h" >>"$root/head.runs"
	bc=$(counts base "$seed") hc=$(counts head "$seed")
	if [ "$bc" = "$hc" ]; then
		same="identical ($bc)"
		echo "$seed" >>"$root/identical"
	else
		same="DIFFERS (base $bc, head $hc)"
	fi
	echo "pair $i seed $seed: base $b head $h; steps results violations $same"
	if [ "$unit" = count ]; then
		echo "$b $(run base "$seed" /dev/null) $h $(run head "$seed" /dev/null)" >>"$root/repeats"
	fi
	i=$((i + 1))
done

quartiles() { # file -> "q1 median q3", linear interpolation
	sort -g "$1" | awk '{ v[NR] = $1 } END {
		for (k = 1; k <= 3; k++) {
			p = (NR - 1) * k / 4 + 1; lo = int(p); hi = (lo < NR) ? lo + 1 : lo
			printf "%s%.6g", (k > 1 ? " " : ""), v[lo] + (v[hi] - v[lo]) * (p - lo)
		}
		print ""
	}'
}
bq=$(quartiles "$root/base.runs")
hq=$(quartiles "$root/head.runs")
echo "$workload $metric ($unit, $better is better) over $pairs pairs"
echo "  base ($base_ref): q1 median q3 = $bq"
echo "  head ($head_ref): q1 median q3 = $hq"
paste "$root/base.runs" "$root/head.runs" | awk -v bq="$bq" -v hq="$hq" -v sign="$([ "$better" = lower ] && echo -1 || echo 1)" '
	sign * ($2 - $1) > 0 { wins++ } sign * ($2 - $1) < 0 { losses++ }
	END {
		split(bq, b, " "); split(hq, h, " ")
		gap = h[2] - b[2]; iqr = b[3] - b[1]
		printf "  head wins %d, loses %d of %d pairs; median gap %+.2f%% of base (%.6g), base IQR %.2f%% (%.6g)\n",
			wins, losses, NR, 100 * gap / b[2], gap, 100 * iqr / b[2], iqr
		if (wins * 10 >= NR * 9 && sign * gap > iqr) print "  verdict: gain"
		else print "  verdict: no gain shown"
	}'
echo "  kernel_steps, results and protocol_violations identical on $(wc -l <"$root/identical" | tr -d ' ') of $pairs pairs"
if [ "$unit" = count ]; then
	awk '
		function off(a, b) { return (a == b) ? 0 : (a > b ? a - b : b - a) / a * 100 }
		{ if ($1 == $2) bsame++; if ($3 == $4) hsame++
		  if (off($1, $2) > bmax) bmax = off($1, $2); if (off($3, $4) > hmax) hmax = off($3, $4) }
		END {
			if (bsame == NR && hsame == NR) { print "  count metric: every seed repeated exactly on both sides"; exit }
			printf "  count metric: NOT exactly repeatable — a second run of the same seed read the same on %d of %d seeds for base (largest difference %.4f%%), %d of %d for head (%.4f%%)\n",
				bsame, NR, bmax, hsame, NR, hmax
		}' "$root/repeats"
fi

# Every end-to-end metric of BENCHMARK.json, from the result lines kept
# above. The array's objects hold no nested braces, so one pattern finds
# each; a metric the result line lacks is reported as missing.
echo "  end-to-end metrics, medians of $pairs runs a side (WORSE: past the BENCHMARK.json bound):"
awk -v bench="$(tr -d ' \n\t' <BENCHMARK.json)" '
	function field(obj, key,    v) { # string or number value of "key" in a flat object
		if (!match(obj, "\"" key "\":(\"[^\"]*\"|[-+0-9.eE]+)")) return ""
		v = substr(obj, RSTART + length(key) + 3, RLENGTH - length(key) - 3)
		gsub(/"/, "", v)
		return v
	}
	function median(side, name,    n, i, j, t, l, v) {
		n = 0
		for (l = 1; l <= lines[side]; l++)
			if (match(line[side, l], "\"" name "\":\\{\"value\":[-+0-9.eE]+")) {
				t = substr(line[side, l], RSTART, RLENGTH); sub(/.*:/, "", t); v[++n] = t + 0
			}
		if (n == 0) return "missing"
		for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
		return (v[int((n + 1) / 2)] + v[int(n / 2) + 1]) / 2
	}
	FNR == 1 { side++ }
	{ line[side, ++lines[side]] = $0 }
	END {
		s = substr(bench, index(bench, "\"end_to_end\":["))
		s = substr(s, 1, index(s, "]"))
		while (match(s, /\{[^{}]*\}/)) {
			obj = substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH)
			name = field(obj, "name"); better = field(obj, "better"); bound = field(obj, "bound") + 0
			b = median(1, name); h = median(2, name)
			if (b == "missing" || h == "missing") { printf "    %-24s missing from the result line\n", name; continue }
			worse = (better == "lower") ? h - b : b - h # how far head moved the wrong way
			mark = (b != 0 ? worse / (b < 0 ? -b : b) > bound : worse > 0) ? "  WORSE" : ""
			delta = (b != 0) ? sprintf("%+.2f%%", 100 * (h - b) / (b < 0 ? -b : b)) : "n/a"
			printf "    %-24s base %-12.6g head %-12.6g %9s  (%s is better, bound %g%%)%s\n", name, b, h, delta, better, 100 * bound, mark
		}
	}' "$root/base.lines" "$root/head.lines"
