#!/bin/sh
# Size of the Go code, per package: non-test files' raw line count and
# their non-comment non-blank line count (lines that are not blank and do
# not start with //) — the two figures CHANGES.md quotes for a change
# that claims to remove code.
#
#   scripts/loc.sh [dir ...]    (default: every package of the module)
set -eu
cd "$(dirname "$0")/.."
if [ $# -eq 0 ]; then
	set -- $(go list -f '{{.Dir}}' ./... | sed "s|^$PWD/||; s|^$PWD\$|.|")
fi
printf '%-28s %8s %8s\n' package raw code
traw=0 tcode=0
for d in "$@"; do
	files=$(find "$d" -maxdepth 1 -name '*.go' ! -name '*_test.go' | sort)
	[ -n "$files" ] || continue
	raw=$(cat $files | wc -l)
	code=$(cat $files | grep -cvE '^[[:space:]]*(//|$)' || true)
	printf '%-28s %8d %8d\n' "$d" "$raw" "$code"
	traw=$((traw + raw)) tcode=$((tcode + code))
done
printf '%-28s %8d %8d\n' total "$traw" "$tcode"
