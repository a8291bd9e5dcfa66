#!/bin/sh
# DESIGN.md's module map names the key types of each package; this keeps
# the names true.
#
# In the table of DESIGN.md §4 ("System inventory"), every back-quoted
# identifier in the third column of a row whose first column names a Go
# package (`internal/x`, or `rdp` for the root) must be a package-level
# declaration — type, func (or method) or var — of that package, exported
# or not.
# Rows for commands and examples have no third column and are skipped.
#
# It prints what it checked and exits 1 on a name the package does not
# declare.
#
#   scripts/design-types.sh
set -eu
cd "$(dirname "$0")/.."
fail=0 rows=0 names=0

# One line per row: "<import path> <identifier>...".
table=$(awk -F'|' '
	/^## 4\. / { on = 1; next }
	/^## / { on = 0 }
	!on || NF < 5 { next }
	{
		pkg = $2; gsub(/^[ `]+|[ `]+$|`.*/, "", pkg)
		if (pkg == "rdp") pkg = "."
		else if (pkg !~ /^internal\//) next
		out = ""; cell = $4
		while (match(cell, /`[A-Za-z_][A-Za-z0-9_]*`/)) {
			out = out " " substr(cell, RSTART + 1, RLENGTH - 2)
			cell = substr(cell, RSTART + RLENGTH)
		}
		if (out != "") print "./" pkg out
	}
' DESIGN.md)

while read -r pkg ids; do
	[ -n "$pkg" ] || continue
	rows=$((rows + 1))
	echo "design-types: ${pkg#./}: $ids"
	files=$(find "$pkg" -maxdepth 1 -name '*.go' ! -name '*_test.go')
	for id in $ids; do
		names=$((names + 1))
		# A declaration on its own line, or inside a grouped type/var block.
		if ! awk -v id="$id" '
			/^(type|var) *\($/ { group = 1; next }
			/^\)/ { group = 0 }
			$1 ~ /^(type|var)$/ && $2 == id { found = 1 }
			$1 == "func" && ($2 ~ "^" id "[\\[(]" || $2 ~ /^\(/ && ($3 ~ "^" id "\\(" || $4 ~ "^" id "\\(")) { found = 1 }
			group && $1 == id { found = 1 }
			END { exit !found }
		' $files; then
			echo "design-types: DESIGN.md §4 names \`$id\` in $pkg, which does not declare it"
			fail=1
		fi
	done
done <<EOF2
$table
EOF2
echo "design-types: $names key types in $rows package rows of DESIGN.md §4 checked against the code"
exit $fail
