package rdpcore

import (
	"cmp"
	"slices"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
)

// stationHost is one station's record of one mobile host (MSSNode.hosts),
// the station-side twin of the MHNode table: all a station keeps about a
// host besides its pref (prefs, whose keys are the hosts the station is
// responsible for, and whose two representations are E16's subject and
// fix the StateBytes contract).
// Every station a host has visited holds one, so the inline words are
// few, and whatever only a hand-off in flight, a held result or a
// delivery attempt needs sits behind x.
//
// Lifetime: made by the first write (rec, entry), never by a read — an
// unknown host reads as absentHost; the whole table goes in a crash;
// hostDurable is the half the journal copies (hostImage) and a restart
// brings back.
type stationHost struct {
	hostDurable
	x *hostTransient // made on first use (transient), retired once idle (settle)
}

// hostDurable is the journaled half of a stationHost.
type hostDurable struct {
	// routed is the highest request sequence routed to the proxy the pref
	// names, by this station or, handed over in the deregack beside the
	// pref, by those before it. §3.3 confirms proxy removal "only if ...
	// RKpR = true and for all of MH's requests the corresponding Ack has
	// been received", and a request can pass through before a del-pref
	// that was sent ahead of it arrives: RKpR arms only on a del-pref
	// whose proxy's mark covers routed (armRKpR). It restarts with the
	// proxy (proxyFor) and with the host's incarnation (noteInc), as the
	// host's sequence does.
	routed uint32
	// seq is the host's registration sequence (msg.Greet.Seq) the station
	// knows last: of the registration it holds, or of the one it handed
	// the pref to (or was refused for) once departed. With inc it orders
	// every greet and dereg about the host (order): the station ignores
	// an older greet and hands the pref over only to a newer dereg
	// (DESIGN §5).
	seq uint32
	// forwardTo is set once the host's dereg has been processed — the
	// host has departed: "it will ignore all future Ack messages from
	// this MH" (§3.1) — to the station that took over responsibility,
	// learned from the Dereg, or that refused this station's own (NoMSS
	// otherwise). A request can be in flight over the old cell's radio
	// when the hand-off completes; dropping it would break the delivery
	// guarantee for that request, and unlike Acks (which retransmission
	// covers) nothing would ever re-create it. The paper does not discuss
	// this in-flight case; forwarding along the hand-off chain is the
	// completing decision (DESIGN §5).
	forwardTo ids.MSS
	// inc is the newest incarnation this station has registered for the
	// host (E18). Requests, greets and registrations carry the issuing
	// incarnation; learning a newer one scrubs everything the dead ones
	// owned (noteInc). Zero means the first incarnation — the pre-E18
	// world.
	inc ids.Incarnation
}

// hostTransient is the volatile, mostly empty part of a stationHost.
type hostTransient struct {
	// arr is the hand-off in flight toward this station while arriving:
	// a value, so recycling the transient part recycles it too.
	arr      arrival
	arriving bool
	// parked holds deregs for a host this station knows nothing about
	// *yet*. An MH only names a station as its old respMss after greeting
	// it, so such a dereg means our own greet (and hand-off) for that MH
	// is still in flight, merely overtaken on another radio link; the
	// dereg is served once the greet lands (it moves into that arrival's
	// deferred queue) or a join registers the MH. Answering immediately
	// with an empty pref would fabricate a registration and lose the real
	// proxy reference.
	parked []inboxItem
	// held stores results kept for the host while inactive (§5 footnote 3
	// optimization); heldAcks is which of the just-delivered ones still
	// await their Ack, and deferredUpdate says the reactivation
	// update_currentLoc is postponed until those Acks have passed through
	// — otherwise the update would reach the proxy before the Acks and
	// trigger exactly the retransmission holding exists to save.
	held           []msg.ResultDeliver
	heldAcks       map[ids.RequestID]bool
	deferredUpdate bool
	// lastAttempt (valid once attempted) and attempts record when this
	// station last sent a ResultDeliver to the (then-reachable) host,
	// overall and per request. With registration-refresh beacons on
	// (Config.GreetRefresh), a refresh arriving inside the delivery round
	// trip must not prompt the proxy into re-sending a result whose Ack is
	// simply still in the air — and a redundant forward of a result whose
	// own delivery attempt is still in flight (e.g. an ARQ-held forward
	// racing a recovery re-send after a restart) is not re-transmitted
	// over the radio. Only attempts younger than the delivery window are
	// kept: an older one already reads as none. first is attempts' array
	// until it outgrows it: a record that has been attempted holds a few
	// attempts for as long as it lives, and it lives as long as its host
	// record, so a separate array would be regrown for every host this
	// station ever delivered to.
	attempted   bool
	lastAttempt sim.Time
	attempts    []attempt
	first       [4]attempt
}

// arrival tracks a mobile host whose greet has been received but whose
// hand-off has not yet completed (dereg sent, deregack pending). Paper
// §2 assumption 4: during the hand-off the MH "may be considered
// inactive by both" stations, so traffic from it is buffered rather than
// processed.
//
// A fast-moving host can leave and re-enter cells while earlier
// hand-offs are still settling, producing greets and deregs that arrive
// at a station whose own registration for that host is pending. Those
// control messages are recorded in deferred, in arrival order, and
// replayed once the registration completes — reconstructing the host's
// true migration chronology one hand-off at a time (see
// handleDeregAck). The paper's presentation assumes hand-offs complete
// before the next migration starts; this queue is the completing
// decision for when they do not.
type arrival struct {
	greetAt  sim.Time
	seq      uint32      // the greet's registration sequence
	buffered []inboxItem // wireless data (requests, acks) from the MH
	deferred []inboxItem // greets/deregs awaiting our registration
}

// attempt is one delivery attempt: a ResultDeliver for req went out (or
// was acknowledged) at at.
type attempt struct {
	req ids.RequestID
	at  sim.Time
}

// absentHost is what a station reads for a host it holds no record of.
// It is never written: whatever writes either takes its record from rec
// or entry, or writes only what it found non-zero.
var absentHost stationHost

// peek returns mh's record for reading, or absentHost.
func (n *MSSNode) peek(mh ids.MH) *stationHost {
	if h := n.hosts[mh]; h != nil {
		return h
	}
	return &absentHost
}

// hostSlab is how many records one allocation holds. Small, because a
// large world has many stations that have met few hosts and each idles
// half a slab (perf region_scale: 64 costs 2 % more live bytes per host
// than 8 and saves 0.3 % of the allocations).
const hostSlab = 8

// rec returns mh's record for writing its durable half, and marks it for
// the journal: flushJournal writes it on the way out of the event.
func (n *MSSNode) rec(mh ids.MH) *stationHost {
	n.markHost(mh)
	return n.entry(mh)
}

// entry returns mh's record, making it on first use — for writing its
// volatile part (transient); the durable half is written through rec.
// Records are only ever freed all at once, by a crash, so they are cut
// from slabs, and a record stays where it is while the station is up: the
// pointer survives nested message processing.
func (n *MSSNode) entry(mh ids.MH) *stationHost {
	h := n.hosts[mh]
	if h == nil {
		if len(n.slab) == cap(n.slab) {
			n.slab = make([]stationHost, 0, hostSlab)
		}
		n.slab = append(n.slab, stationHost{})
		h = &n.slab[len(n.slab)-1]
		n.hosts[mh] = h
	}
	return h
}

// transient returns h's volatile part for writing. Every hand-off needs
// one for a few round trips, so a retired one (spareTransients) serves
// the next.
func (n *MSSNode) transient(h *stationHost) *hostTransient {
	if h.x == nil {
		if h.x = pop(&n.spareTransients); h.x == nil {
			h.x = new(hostTransient)
		}
	}
	return h.x
}

// settle retires h's volatile part once nothing in it is live: a host
// that merely passed through costs the station its inline words only.
func (n *MSSNode) settle(h *stationHost) {
	if x := h.x; x != nil && !x.arriving && len(x.parked) == 0 && len(x.held) == 0 &&
		len(x.heldAcks) == 0 && !x.deferredUpdate && len(x.attempts) == 0 {
		*x = hostTransient{}
		h.x = nil
		push(&n.spareTransients, x)
	}
}

// arrival returns the hand-off in flight toward this station, or nil.
// The record lives in the transient part, so a caller must not hold it
// across anything that may end the arrival (handleDeregAck copies it).
func (h *stationHost) arrival() *arrival {
	if h.x == nil || !h.x.arriving {
		return nil
	}
	return &h.x.arr
}

// arrive starts a hand-off toward this station: greeted at greetAt for
// registration seq, with deferred already waiting behind it.
func (x *hostTransient) arrive(greetAt sim.Time, seq uint32, deferred []inboxItem) {
	x.arr, x.arriving = arrival{greetAt: greetAt, seq: seq, deferred: deferred}, true
}

// departed reports whether the host's registration has left this station
// (forwardTo).
func (d hostDurable) departed() bool { return d.forwardTo.Valid() }

// order compares the registration (inc, seq) a greet or dereg names with
// the newest one the station knows for the host — its pending arrival's,
// or the record's — by incarnation first: -1 older, 0 the same, +1 newer.
func (h *stationHost) order(inc ids.Incarnation, seq uint32) int {
	known := h.seq
	if arr := h.arrival(); arr != nil {
		known = arr.seq
	}
	return cmp.Or(cmp.Compare(normInc(inc), normInc(h.inc)), cmp.Compare(seq, known))
}

// attemptedWithin reports whether a delivery attempt for req is younger
// than window at now.
func (x *hostTransient) attemptedWithin(req ids.RequestID, now, window sim.Time) bool {
	i := slices.IndexFunc(x.attempts, func(a attempt) bool { return a.req == req })
	return i >= 0 && now-x.attempts[i].at < window
}

// noteAttempt records (or refreshes) a delivery attempt for req at now
// and drops every attempt window or more old.
func (x *hostTransient) noteAttempt(req ids.RequestID, now, window sim.Time) {
	if x.attempts == nil {
		x.attempts = x.first[:0]
	}
	x.attempts = append(slices.DeleteFunc(x.attempts, func(a attempt) bool {
		return a.req == req || now-a.at >= window
	}), attempt{req: req, at: now})
}
