#!/bin/sh
# A station has two ways in and the journal one way out; this keeps it so.
#
# In internal/rdpcore's station and proxy files (everything a station
# runs: not the MH, the world or the statistics), non-test code may
#
#   - reach the scheduler (Kernel.Defer / Kernel.After) only inside
#     MSSNode.after — the timer door, which voids timers across a crash
#     and journals on the way out — and MSSNode.scheduleProcessing, the
#     inbox turn that ends in process;
#   - touch the stable store (w.store, a stationRecord's tables, the
#     image builders) only in stable.go: everything else marks what it
#     wrote (markHost, markSlot — mostly inside the write accessors) or
#     uses the two immediate writers (persistSeq, persistReclaim), and
#     flushJournal does the writing at the event boundary. A proxy's
#     image (Proxy.image) is also what a migration ships, so migrateOut
#     may take one: a copy into a message, not a journal write.
#
# A host has one way in too: mh.go reaches the scheduler only inside
# MHNode.after, the door that voids a host's timers across leave, crash
# and DetachMH by moving its generation on. And nothing is cancelled: no
# non-test Go outside internal/sim and perf/ names sim.Canceler, calls
# Kernel.After or cancels a scheduled event (.Cancel()) — a timer its
# owner stops wanting fires as a no-op behind a generation check.
#
# It prints what it counted and exits 1 on a breach, or when the explicit
# mark/persist call sites outside stable.go outgrow their budget.
#
#   scripts/station-doors.sh
set -eu
cd "$(dirname "$0")/../internal/rdpcore"
station="mss.go proxy.go groupproxy.go migration.go hosttable.go aggtable.go stable.go"
budget=12
fail=0

# Scheduler calls, by enclosing function (a top-level func line opens one).
timers=$(awk '
	/^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[(\[].*/, "", fn) }
	/^[[:space:]]*\/\// { next }
	/Kernel\.(Defer|After)\(/ { print FILENAME ":" FNR ": in " fn }
' $station)
doors=$(printf '%s\n' "$timers" | grep -cE ': in (after|scheduleProcessing)$' || true)
strays=$(printf '%s\n' "$timers" | grep -vE ': in (after|scheduleProcessing)$' | grep -v '^$' || true)
echo "station-doors: $doors scheduler calls inside after/scheduleProcessing"
if [ -n "$strays" ]; then
	echo "station-doors: scheduler reached outside the timer door:"
	printf '%s\n' "$strays"
	fail=1
fi

# The host's scheduler calls, by enclosing function, as above.
htimers=$(awk '
	/^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[(\[].*/, "", fn) }
	/^[[:space:]]*\/\// { next }
	/Kernel\.(Defer|DeferAt|After)\(/ { print FILENAME ":" FNR ": in " fn }
' mh.go)
hdoors=$(printf '%s\n' "$htimers" | grep -cE ': in after$' || true)
hstrays=$(printf '%s\n' "$htimers" | grep -vE ': in after$' | grep -v '^$' || true)
echo "station-doors: $hdoors host scheduler calls inside MHNode.after"
if [ -n "$hstrays" ]; then
	echo "station-doors: a host reached the scheduler outside its timer door:"
	printf '%s\n' "$hstrays"
	fail=1
fi

# Cancellation, anywhere in the module's non-test Go but the kernel's own
# adapter and the benchmark harness that still names it.
# Hidden directories (build exports of other commits) are not the module.
cancels=$(cd ../.. && find . -name '.?*' -prune -o -name '*.go' ! -name '*_test.go' -print |
	grep -vE '^\./(internal/sim|perf)/' |
	xargs grep -nHE 'sim\.Canceler|Kernel\.After\(|\.Cancel\(\)' |
	grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' || true)
ncancels=$(printf '%s\n' "$cancels" | grep -c . || true)
echo "station-doors: $ncancels cancellations outside internal/sim and perf/"
if [ -n "$cancels" ]; then
	echo "station-doors: a scheduled event is cancelled — let it fire as a no-op behind a generation:"
	printf '%s\n' "$cancels" | sed 's/^/  /'
	fail=1
fi

# The stable store and the image builders, outside stable.go (but for the
# image migrateOut ships), by enclosing function.
others=$(printf '%s\n' $station | grep -v '^stable\.go$')
leaks=$(awk '
	/^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[(\[].*/, "", fn) }
	/^[[:space:]]*\/\// { next }
	/\.image\(/ && fn == "migrateOut" { next }
	/\.store([^A-Za-z0-9_]|$)|\.image\(|hostImage\(|journalAppend\(/ { print FILENAME ":" FNR ": in " fn }
' $others)
if [ -n "$leaks" ]; then
	echo "station-doors: journal written outside stable.go:"
	printf '%s\n' "$leaks"
	fail=1
fi

# Explicit journal call sites outside stable.go: marks and immediate writers.
sites=$(grep -nE '\b(markHost|markSlot|persistSeq|persistReclaim)\(' $others | grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' || true)
count=$(printf '%s\n' "$sites" | grep -c . || true)
echo "station-doors: $count explicit mark/persist call sites outside stable.go (budget $budget):"
printf '%s\n' "$sites" | sed 's/^/  /'
if [ "$count" -gt "$budget" ]; then
	echo "station-doors: over budget — write through an accessor that marks (rec, setPref, adopt, forget, put, take, deliver)"
	fail=1
fi
exit $fail
