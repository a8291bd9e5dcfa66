#!/bin/sh
# A host's life is a script, and one package says what a script is.
#
# In non-test Go code,
#
#   - workload.Itinerary( and workload.Schedule( — the raw generators —
#     may be called only inside internal/workload (Script.Generate is
#     the one caller), by perf/ (the benchmark spells its own inputs) and
#     by rdp.go's public re-exports; everything else describes a
#     workload.Script and calls Generate;
#   - what an event kind means is decided only in internal/workload
#     (Apply, Destination): nowhere else may a `case` name a host event
#     kind or a comparison test for one. Building an event
#     (Kind: workload.EvMigrate) and aliasing the constants is fine.
#     perf/ is outside the rule for the same reason as above. There are
#     no other exceptions.
#
# It prints what it counted and exits 1 on a breach.
#
#   scripts/one-driver.sh
set -eu
cd "$(dirname "$0")/.."
fail=0
kinds='Ev(Migrate|Deactivate|Activate|Request|Disconnect|Reconnect|Flush|Crash|Restart|Wake)'

files=$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' ! -path './perf/*' ! -path './internal/workload/*' | sort)

gens=$(grep -nE 'workload\.(Itinerary|Schedule)\(' $files | grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' || true)
allowed=$(printf '%s\n' "$gens" | grep -c '^\./rdp\.go:' || true)
strays=$(printf '%s\n' "$gens" | grep -v '^\./rdp\.go:' | grep -v '^$' || true)
echo "one-driver: $allowed raw generator calls in rdp.go's re-exports, $(grep -cE '\b(Itinerary|Schedule)\(rng' internal/workload/script.go) in Script.Generate"
if [ -n "$strays" ]; then
	echo "one-driver: raw generator called outside internal/workload — describe a workload.Script and call Generate:"
	printf '%s\n' "$strays"
	fail=1
fi

tests=$(grep -nE "(case[[:space:]].*\\b$kinds\\b|[!=]=[[:space:]]*([a-z]+\\.)?$kinds\\b|\\b$kinds[[:space:]]*[!=]=)" $files | grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' || true)
count=$(printf '%s\n' "$tests" | grep -c . || true)
echo "one-driver: $count tests on a host event kind outside internal/workload"
if [ "$count" -gt 0 ]; then
	echo "one-driver: an event kind is interpreted outside workload.Apply/Destination:"
	printf '%s\n' "$tests"
	fail=1
fi
exit $fail
