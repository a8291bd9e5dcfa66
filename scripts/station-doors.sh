#!/bin/sh
# A station has two ways in and the journal one way out; this keeps it so.
#
# In internal/rdpcore's station and proxy files (everything a station
# runs: not the MH, the world or the statistics), non-test code may
#
#   - reach the scheduler only through the world's stationTimers inside
#     MSSNode.after — the timer door, which voids timers across a crash
#     by the station's boot count and journals on the way out — and
#     through Kernel.Defer inside MSSNode.scheduleProcessing, the inbox
#     turn that ends in process; any other scheduler call in those files
#     (a Kernel.Defer anywhere else, a stationTimers call outside after)
#     is a breach. A station's messages to itself ride selfHops, a door
#     for messages, not timers;
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
# and DetachMH by moving its generation on — through the world's
# hostTimers, or its retries and deadlines (the constant-delay FIFOs,
# sim.Timeouts); any other scheduler call in mh.go (a Kernel.Defer
# anywhere, one of those three outside after) is a breach. Both doors take
# a typed record — what the timer is for and what it is about, a
# stationTimer or a hostTimer — that the world defers by value: in
# internal/rdpcore's non-test code, every call of after passes a
# stationTimer or hostTimer literal, never a function literal or a method
# value. It prints, as of this writing,
#
#   station-doors: 2 station scheduler calls inside MSSNode.after (stationTimers) and scheduleProcessing (Kernel)
#   station-doors: 3 host scheduler calls inside MHNode.after (hostTimers, retries, deadlines)
#   station-doors: 13 timers armed through after, each a typed record
#
# And nothing is cancelled: no
# non-test Go outside internal/sim and perf/ names sim.Canceler, calls
# Kernel.After or cancels a scheduled event (.Cancel()) — a timer its
# owner stops wanting fires as a no-op behind a generation check.
#
# Every node has one door, HandleMessage, and the request path's eight
# messages (request, request-fwd, srv-request, srv-result, result-fwd,
# result, ack, ack-fwd) and the hand-off's four (greet, dereg, deregack,
# update-currl) cross it, and every transport's send, as a msg.View of a
# leg, borrowed for the call; whoever keeps one copies it into a
# msg.Envelope. So
#
#   - no non-test Go outside internal/msg and perf/ asserts a message to
#     the box type of one of the twelve kinds (m.(msg.Request)) or names
#     one in a type switch's case: a view fails either silently. It
#     switches on Kind() and reads the leg through msg.LegOf;
#   - in internal/rdpcore and internal/server, non-test code hands no
#     composite literal of one of the twelve kinds straight to a door
#     (sendWired, sendToStation, a transport's Send, SendUplink or
#     SendDownlink, the host's uplink, selfHops.Defer) — that would box
#     it. It writes the literal's .Leg() to the world's outgoing slot and
#     sends a view of it: w.view(msg.Dereg{...}.Leg());
#   - internal/netsim's non-test code boxes no leg (msg.Keep, or a Leg's
#     Message): a frame record keeps its message's envelope — a windowed
#     frame's record a copy of its envelopes — and shows it
#     (Envelope.Message) to handlers and listeners alike;
#   - a host keeps what it will send again as envelopes too: no field of
#     MHNode or hostTimer in internal/rdpcore/mh.go has a type that names
#     msg.Message, but for MHNode.offline, the journaled offline queue,
#     which holds what the journal decodes.
#
# It prints, as of this writing,
#
#   station-doors: 0 leg-kind box types asserted or switched on outside internal/msg and perf/
#   station-doors: 0 request-path and hand-off messages boxed at a msg.Message door (rdpcore, server)
#   station-doors: 0 legs boxed in internal/netsim
#   station-doors: 0 msg.Message fields in MHNode and hostTimer (but the offline journal)
#
# A proxy and a proxy's journal image are made over a record of the
# station's spare stock when it has one, so each has one constructor: in
# internal/rdpcore's non-test code a Proxy is built (new(Proxy), a Proxy
# composite literal) only inside newProxy, and a msg.MigState allocated
# (new(msg.MigState), &msg.MigState{...}) only inside newImage — a value
# MigState, such as the one migrateOut ships, is a message.
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

# Scheduler calls, by enclosing function (a top-level func line opens one)
# and by what they call: the doors are stationTimers.Defer inside after
# and Kernel.Defer inside scheduleProcessing.
timers=$(awk '
	/^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[(\[].*/, "", fn) }
	/^[[:space:]]*\/\// { next }
	/(Kernel|stationTimers)\.(Defer|DeferAt|After)\(/ {
		via = ($0 ~ /stationTimers\.Defer\(/) ? "stationTimers" : "Kernel"
		print FILENAME ":" FNR ": in " fn " via " via
	}
' $station)
sdoor=': in (after via stationTimers|scheduleProcessing via Kernel)$'
doors=$(printf '%s\n' "$timers" | grep -cE "$sdoor" || true)
strays=$(printf '%s\n' "$timers" | grep -vE "$sdoor" | grep -v '^$' || true)
echo "station-doors: $doors station scheduler calls inside MSSNode.after (stationTimers) and scheduleProcessing (Kernel)"
if [ -n "$strays" ]; then
	echo "station-doors: a station reached the scheduler outside its doors:"
	printf '%s\n' "$strays"
	fail=1
fi

# The host's scheduler calls, by enclosing function and by what they call:
# the door is hostTimers.Defer, retries.Add and deadlines.Add inside after.
htimers=$(awk '
	/^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[(\[].*/, "", fn) }
	/^[[:space:]]*\/\// { next }
	/(Kernel|hostTimers)\.(Defer|DeferAt|After)\(|(retries|deadlines)\.Add\(/ {
		via = "Kernel"
		if ($0 ~ /hostTimers\.Defer\(/) via = "hostTimers"
		else if ($0 ~ /retries\.Add\(/) via = "retries"
		else if ($0 ~ /deadlines\.Add\(/) via = "deadlines"
		print FILENAME ":" FNR ": in " fn " via " via
	}
' mh.go)
hdoor=': in after via (hostTimers|retries|deadlines)$'
hdoors=$(printf '%s\n' "$htimers" | grep -cE "$hdoor" || true)
hstrays=$(printf '%s\n' "$htimers" | grep -vE "$hdoor" | grep -v '^$' || true)
echo "station-doors: $hdoors host scheduler calls inside MHNode.after (hostTimers, retries, deadlines)"
if [ -n "$hstrays" ]; then
	echo "station-doors: a host reached the scheduler outside its timer door:"
	printf '%s\n' "$hstrays"
	fail=1
fi

# What each timer door is handed: a stationTimer or hostTimer literal on
# the line of the call, never a closure or a method value.
arms=$(awk '
	/^[[:space:]]*\/\// || /^func / { next }
	/[^A-Za-z0-9_]after\(/ { print FILENAME ":" FNR ":" $0 }
' $(ls *.go | grep -v '_test\.go$'))
narms=$(printf '%s\n' "$arms" | grep -c . || true)
untyped=$(printf '%s\n' "$arms" | grep -vE '[^A-Za-z0-9_]after\([^,]*, (stationTimer|hostTimer)[{]' | grep -v '^$' || true)
echo "station-doors: $narms timers armed through after, each a typed record"
if [ -n "$untyped" ]; then
	echo "station-doors: a timer armed with something other than a stationTimer or hostTimer literal:"
	printf '%s\n' "$untyped" | sed 's/^/  /'
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

legkinds='Request|RequestForward|ServerRequest|ServerResult|ResultForward|ResultDeliver|AckMH|AckForward|Greet|Dereg|DeregAck|UpdateCurrentLoc'

# Type assertions to, and type-switch cases on, a leg kind's box type, by
# file and line: a view is none of them.
asserts=$(cd ../.. && find . -name '.?*' -prune -o -name '*.go' ! -name '*_test.go' -print |
	grep -vE '^\./(internal/msg|perf)/' | sort |
	xargs grep -nHE "\.\(msg\.($legkinds)\)|^[[:space:]]*case .*msg\.($legkinds)([^A-Za-z0-9_{]|\$)" |
	grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' || true)
nasserts=$(printf '%s\n' "$asserts" | grep -c . || true)
echo "station-doors: $nasserts leg-kind box types asserted or switched on outside internal/msg and perf/"
if [ -n "$asserts" ]; then
	echo "station-doors: a leg may arrive as a msg.View — switch on Kind() and read it through msg.LegOf:"
	printf '%s\n' "$asserts" | sed 's/^/  /'
	fail=1
fi

# Leg-kind literals boxed at a Message door, by file and line. A call
# may span lines, so each file is scanned whole: from a door's opening
# parenthesis to its matching close. A literal written to the outgoing
# slot (view(msg.Dereg{...}.Leg())) is sent as a view.
boxed=$(cd ../.. && find internal/rdpcore internal/server -name '*.go' ! -name '*_test.go' | sort |
	xargs awk -v kinds="$legkinds" '
	function scan(   rest, base, i, c, depth, args, shown, pre) {
		rest = text
		base = 0
		while (match(rest, /(sendWired|sendToStation|\.Send|SendUplink|SendDownlink|selfHops\.Defer|[^A-Za-z0-9_]uplink)\(/)) {
			i = RSTART + RLENGTH
			depth = 1
			args = ""
			while (depth > 0 && i <= length(rest)) {
				c = substr(rest, i, 1)
				if (c == "(") depth++
				else if (c == ")") depth--
				if (depth > 0) args = args c
				i++
			}
			shown = args
			gsub("view[(]msg[.](" kinds ")[{]", "", shown)
			if (shown ~ ("msg[.](" kinds ")[{]")) {
				gsub(/[[:space:]]+/, " ", args)
				pre = substr(text, 1, base + RSTART)
				print file ":" gsub(/\n/, "", pre) + 1 ": " substr(rest, RSTART, RLENGTH) args ")"
			}
			base += RSTART + RLENGTH - 1
			rest = substr(rest, RSTART + RLENGTH)
		}
	}
	FNR == 1 && NR > 1 { scan(); text = "" }
	{ file = FILENAME; line = $0; sub(/^[[:space:]]*\/\/.*/, "", line); text = text line "\n" }
	END { scan() }
' || true)
nboxed=$(printf '%s\n' "$boxed" | grep -c . || true)
echo "station-doors: $nboxed request-path and hand-off messages boxed at a msg.Message door (rdpcore, server)"
if [ -n "$boxed" ]; then
	echo "station-doors: write the literal's .Leg() to the outgoing slot and send a view of it (w.view) instead:"
	printf '%s\n' "$boxed" | sed 's/^/  /'
	fail=1
fi

# Leg boxings in netsim, by file, line and enclosing function (its
# receiver's type, a dot, its name): there are none.
legboxes=$(cd ../netsim && awk '
	/^func / {
		fn = $0; sub(/^func /, "", fn); recv = ""
		if (fn ~ /^\(/) { recv = fn; sub(/\).*/, "", recv); sub(/.*[ *]/, "", recv); sub(/^\([^)]*\) /, "", fn) }
		sub(/[(\[].*/, "", fn)
		if (recv != "") fn = recv "." fn
	}
	/^[[:space:]]*\/\// { next }
	/msg\.Keep\(/ || (/\.Message\(\)/ && !/(env|in)\.Message\(\)/) { print FILENAME ":" FNR ": in " fn }
' $(ls *.go | grep -v '_test\.go$'))
nlegboxes=$(printf '%s\n' "$legboxes" | grep -c . || true)
echo "station-doors: $nlegboxes legs boxed in internal/netsim"
if [ -n "$legboxes" ]; then
	echo "station-doors: a leg boxed in netsim — keep a frame's envelope (msg.EnvelopeOf) and show it (Envelope.Message):"
	printf '%s\n' "$legboxes" | sed 's/^/  /'
	fail=1
fi

# Boxing keepers in a host, by file, line and struct: a field of MHNode or
# hostTimer whose type names msg.Message, but for the offline journal.
hostboxes=$(awk '
	/^type (MHNode|hostTimer) struct/ { in_struct = $2; next }
	in_struct != "" && /^}/ { in_struct = ""; next }
	in_struct == "" || /^[[:space:]]*\/\// { next }
	/msg\.Message([^A-Za-z0-9_]|$)/ && !(in_struct == "MHNode" && $1 == "offline") {
		print FILENAME ":" FNR ": in " in_struct
	}
' mh.go)
nhostboxes=$(printf '%s\n' "$hostboxes" | grep -c . || true)
echo "station-doors: $nhostboxes msg.Message fields in MHNode and hostTimer (but the offline journal)"
if [ -n "$hostboxes" ]; then
	echo "station-doors: a host keeps a box — keep the message's envelope (msg.EnvelopeOf) and show it (Envelope.Message) when it goes out again:"
	printf '%s\n' "$hostboxes" | sed 's/^/  /'
	fail=1
fi

# Proxy and journal-image constructions, by file, line and enclosing
# function: newProxy and newImage are the only ones.
builds=$(awk '
	/^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[(\[].*/, "", fn) }
	/^[[:space:]]*\/\// { next }
	/new\(Proxy\)|(^|[^A-Za-z0-9_.])Proxy[{]/ && fn != "newProxy" { print FILENAME ":" FNR ": Proxy in " fn }
	/new\(msg\.MigState\)|&msg\.MigState[{]/ && fn != "newImage" { print FILENAME ":" FNR ": msg.MigState in " fn }
' $(ls *.go | grep -v '_test\.go$'))
nbuilds=$(printf '%s\n' "$builds" | grep -c . || true)
echo "station-doors: $nbuilds proxies or journal images constructed outside newProxy/newImage"
if [ -n "$builds" ]; then
	echo "station-doors: make a proxy with newProxy and a journal image with newImage (they draw on the spare stock):"
	printf '%s\n' "$builds" | sed 's/^/  /'
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
