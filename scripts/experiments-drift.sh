#!/bin/sh
# List the EXPERIMENTS.md table rows that rdpbench no longer prints:
#
#   scripts/experiments-drift.sh [eN ...]
#
# For each experiment named (default: every entry without host-time
# columns, E1–E12, E15, E17 and E18, about 10 s in all), it runs
# `rdpbench -exp eN -seed 1` at full scale and reads the section of
# EXPERIMENTS.md headed "## EN —". Every line of that
# section indented as a code block (four spaces) is a quoted table row; a
# row that matches no printed line, blanks collapsed, is drift and is
# listed as "eN: <row>". It exits 1 when it lists any, 0 when every
# quoted row is still printed. Rows the document quotes are checked one
# way only: a printed row the document leaves out is not drift.
set -eu
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e15 e17 e18
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/rdpbench" ./cmd/rdpbench
norm() { sed -e 's/[[:space:]][[:space:]]*/ /g' -e 's/^ //' -e 's/ $//'; }
drift=0
for e in "$@"; do
	"$tmp/rdpbench" -exp "$e" -seed 1 | norm >"$tmp/printed"
	head=$(printf '%s' "$e" | tr e E)
	awk -v h="## $head —" '
		index($0, h) == 1 { on = 1; next }
		on && /^## / { exit }
		on && /^    [^ ]/ { print }
	' EXPERIMENTS.md | norm >"$tmp/quoted"
	if [ ! -s "$tmp/quoted" ]; then
		echo "$e: EXPERIMENTS.md quotes no table rows under \"## $head —\""
		drift=1
		continue
	fi
	while IFS= read -r row; do
		if ! grep -qxF -- "$row" "$tmp/printed"; then
			echo "$e: $row"
			drift=1
		fi
	done <"$tmp/quoted"
done
exit $drift
