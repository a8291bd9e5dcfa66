package rdpcore

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
)

// sortRequestIDs and sortBatchIDs order identifier slices for
// deterministic timer arming and replay.
func sortRequestIDs(s []ids.RequestID) {
	sort.Slice(s, func(i, j int) bool { return s[i].Less(s[j]) })
}

func sortBatchIDs(s []ids.BatchID) {
	sort.Slice(s, func(i, j int) bool { return s[i].Less(s[j]) })
}

// MHNode is a mobile host (§2): a disconnected computer with a
// system-wide unique identification that is either active or inactive,
// joins and leaves the system, migrates between cells, issues requests
// through its respMss, and acknowledges every message received from it
// (assumption 4). Duplicate detection (assumption 5) is implemented with
// the set of request identifiers already answered.
type MHNode struct {
	id      ids.MH
	w       *World
	respMss ids.MSS
	joined  bool
	// regOld is the last station that *confirmed* a registration (see
	// Config.RegConfirm). With confirmations on, greets name it as the
	// old respMss: a station that never actually registered the MH (its
	// greet was lost to a crash) must not anchor the hand-off chain.
	regOld ids.MSS
	// inc is the host's current incarnation number (E18), mirrored from
	// the world's non-volatile flash word. It is stamped on every
	// registration and request so that, after a crash-with-amnesia and
	// restart, state belonging to the dead incarnation can be recognized
	// and scrubbed everywhere — and a result addressed to a dead
	// incarnation is never delivered to its successor.
	inc ids.Incarnation
	// Transfer stash (psim region hand-over): DetachMH parks the host's
	// world-resident durable state — incarnation word, crash flag,
	// offline journal — here so AttachMH restores it in the destination
	// world. The flash chip travels with the device.
	xferInc     ids.Incarnation
	xferCrashed bool
	xferJournal []byte

	nextSeq  uint32
	seen     map[ids.RequestID]bool
	issuedAt map[ids.RequestID]sim.Time
	// outstanding holds requests issued whose results have not yet been
	// received; its emptiness is piggybacked on every Ack (see
	// msg.AckMH.HaveOutstanding).
	outstanding map[ids.RequestID]bool

	// queued holds requests issued while inactive; they are transmitted
	// on the next activation (a minimal QRPC-style request queue; the
	// paper cites Rover's QRPC as the complementary mechanism for
	// reliable request sending).
	queued []msg.Message
	// offline holds requests issued while disconnected (out of coverage
	// entirely, E17), in issue order. The queue is journaled through the
	// world's stable store on every mutation and replayed verbatim on
	// reconnection; the proxy's request memoization and the MH's own
	// seen-set make the replay idempotent.
	offline []msg.Message

	// admitted marks requests the responsible MSS acknowledged past
	// admission control (msg.Admit): they are covered by the delivery
	// guarantee and are never abandoned or busy-retried again.
	admitted map[ids.RequestID]bool
	// abandoned marks never-admitted requests whose per-request deadline
	// expired (Config.RequestDeadline); the client gave up on them.
	abandoned map[ids.RequestID]bool
	// pending retains the full request message while it may still need a
	// busy re-issue (a Busy NACK only carries the request identifier).
	pending map[ids.RequestID]msg.Request
	// busyAttempts counts Busy NACKs per request, driving the capped
	// exponential backoff.
	busyAttempts map[ids.RequestID]int
	// rng is a lazily forked random stream for backoff jitter. Lazy so
	// configurations without busy-retry never draw from the kernel
	// stream (golden traces depend on the default draw order).
	rng *sim.RNG

	// timers tracks every pending kernel timer this host armed (refresh
	// beacons, request retries, deadlines, busy backoffs, batch retries)
	// so detach and leave can cancel them: a detached host must leak no
	// kernel events (its timers would otherwise fire against a world it
	// no longer inhabits). timerSeq keys the map.
	timers   map[uint64]sim.Canceler
	timerSeq uint64
	// retryMsgs retains the message behind each live retry chain and
	// deadlines the set of armed request deadlines, so timers cancelled
	// at detach can re-arm from live state on attach.
	retryMsgs map[ids.RequestID]msg.Message
	deadlines map[ids.RequestID]bool

	// --- Atomic request batches (E17) ---

	nextBatchSeq uint32
	// batches holds this host's batch bookkeeping; batchOf maps member
	// requests back to their batch.
	batches map[ids.BatchID]*mhBatch
	batchOf map[ids.RequestID]ids.BatchID

	// onResult, when set, observes every result delivery (first or
	// duplicate) for application callbacks and tests.
	onResult func(req ids.RequestID, payload []byte, duplicate bool)
}

// mhBatch is the client side of one atomic batch: the control messages
// it re-sends until the batch resolves, and the member set it uses to
// detect resolution (all delivered, or aborted).
type mhBatch struct {
	id        ids.BatchID
	open      msg.BatchOpen
	items     []msg.BatchItem
	committed bool
	aborted   bool
}

// newMHNode constructs a mobile host bound to a world.
func newMHNode(id ids.MH, w *World) *MHNode {
	return &MHNode{
		id:           id,
		w:            w,
		inc:          ids.FirstIncarnation,
		seen:         make(map[ids.RequestID]bool),
		issuedAt:     make(map[ids.RequestID]sim.Time),
		outstanding:  make(map[ids.RequestID]bool),
		admitted:     make(map[ids.RequestID]bool),
		abandoned:    make(map[ids.RequestID]bool),
		pending:      make(map[ids.RequestID]msg.Request),
		busyAttempts: make(map[ids.RequestID]int),
		timers:       make(map[uint64]sim.Canceler),
		retryMsgs:    make(map[ids.RequestID]msg.Message),
		deadlines:    make(map[ids.RequestID]bool),
		batches:      make(map[ids.BatchID]*mhBatch),
		batchOf:      make(map[ids.RequestID]ids.BatchID),
	}
}

// after arms a tracked kernel timer: the handle is retained until the
// callback fires or cancelTimers sweeps it, so no detached host leaves
// events behind in the kernel.
func (h *MHNode) after(d time.Duration, fn func()) {
	h.timerSeq++
	id := h.timerSeq
	h.timers[id] = h.w.Kernel.After(d, func() {
		delete(h.timers, id)
		fn()
	})
}

// cancelTimers cancels every pending timer (detach, leave). Cancellation
// order does not matter: cancelling never schedules events, so map
// iteration order cannot perturb the kernel's event sequence.
func (h *MHNode) cancelTimers() {
	for id, c := range h.timers {
		c.Cancel()
		delete(h.timers, id)
	}
}

// rearmTimers rebuilds the timer set from live state after an attach:
// the refresh beacon, one retry chain per un-answered tracked request,
// one full deadline per armed request (conservatively restarted — a
// deadline never fires early), and the retry chain of every unresolved
// committed batch. Requests and batches are armed in sorted order so
// the kernel event sequence stays a pure function of the seed.
func (h *MHNode) rearmTimers() {
	if !h.joined {
		return
	}
	if h.w.cfg.GreetRefresh > 0 {
		h.scheduleRefresh()
	}
	reqs := make([]ids.RequestID, 0, len(h.retryMsgs))
	for req := range h.retryMsgs {
		reqs = append(reqs, req)
	}
	sortRequestIDs(reqs)
	for _, req := range reqs {
		h.scheduleRetry(req, h.retryMsgs[req])
	}
	dls := make([]ids.RequestID, 0, len(h.deadlines))
	for req := range h.deadlines {
		dls = append(dls, req)
	}
	sortRequestIDs(dls)
	for _, req := range dls {
		h.scheduleDeadline(req)
	}
	bs := make([]ids.BatchID, 0, len(h.batches))
	for id, b := range h.batches {
		if b.committed && !h.batchResolved(b) {
			bs = append(bs, id)
		}
	}
	sortBatchIDs(bs)
	for _, id := range bs {
		h.scheduleBatchRetry(h.batches[id])
	}
}

// ID returns the mobile host identifier.
func (h *MHNode) ID() ids.MH { return h.id }

// RespMss returns the station the MH currently considers responsible
// for it.
func (h *MHNode) RespMss() ids.MSS { return h.respMss }

// Joined reports whether the MH is part of the system.
func (h *MHNode) Joined() bool { return h.joined }

// Seen reports whether the result of req has been received.
func (h *MHNode) Seen(req ids.RequestID) bool { return h.seen[req] }

// Admitted reports whether the responsible MSS acknowledged req past
// admission control (overload protection, E11). A request that was
// delivered counts as admitted even if the explicit Admit was lost.
func (h *MHNode) Admitted(req ids.RequestID) bool { return h.admitted[req] || h.seen[req] }

// Abandoned reports whether the client gave up on a never-admitted
// request at its deadline (see Config.RequestDeadline).
func (h *MHNode) Abandoned(req ids.RequestID) bool { return h.abandoned[req] }

// OnResult installs the result observer callback.
func (h *MHNode) OnResult(fn func(req ids.RequestID, payload []byte, duplicate bool)) {
	h.onResult = fn
}

// join sends the join message to the station of the current cell (§2).
func (h *MHNode) join(cell ids.MSS) {
	h.respMss = cell
	h.joined = true
	h.regOld = 0 // no confirmed registration yet in this membership
	h.uplink(msg.Join{MH: h.id})
	if h.w.cfg.GreetRefresh > 0 {
		h.scheduleRefresh()
	}
}

// greetOld picks the old respMss a greet should name: the last confirmed
// station when confirmations are on (falling back to the believed one
// before the first confirmation), else the believed one.
func (h *MHNode) greetOld(prev ids.MSS) ids.MSS {
	if h.w.cfg.RegConfirm && h.regOld != 0 {
		return h.regOld
	}
	return prev
}

// refreshGreet re-sends a registration beacon to the current respMss.
func (h *MHNode) refreshGreet() {
	h.uplink(msg.Greet{MH: h.id, OldMSS: h.greetOld(h.respMss), Inc: h.inc})
}

// scheduleRefresh re-greets the current respMss on a fixed period while
// the MH is active (see Config.GreetRefresh). A disconnected host skips
// the beacon (its radio is gone) but keeps the period running.
func (h *MHNode) scheduleRefresh() {
	h.after(h.w.cfg.GreetRefresh, func() {
		if !h.joined {
			return
		}
		if h.w.IsActive(h.id) && !h.w.IsDisconnected(h.id) {
			h.refreshGreet()
		}
		h.scheduleRefresh()
	})
}

// leave exits the system (§2). Assumption 6 requires all results to have
// been acknowledged; the responsible MSS checks and records a violation
// otherwise.
func (h *MHNode) leave() {
	if !h.joined {
		return
	}
	h.uplink(msg.Leave{MH: h.id})
	h.joined = false
	// The membership is over: its timers must not fire into a later
	// rejoin, and the retry/deadline bookkeeping dies with it.
	h.cancelTimers()
	h.retryMsgs = make(map[ids.RequestID]msg.Message)
	h.deadlines = make(map[ids.RequestID]bool)
}

// crash wipes the host's volatile state (E18, World.CrashMH): every
// timer, the duplicate-detection seen-set, the outstanding/admitted/
// abandoned/pending bookkeeping, the activation and offline queues, the
// batch objects, and both sequence counters. Only what the model puts
// in non-volatile flash survives: the incarnation counter (held by the
// World) and the journaled offline queue in the stable store. The
// membership itself survives too — the host never sent a Leave, so the
// system still considers it registered; it is the *memory* that died.
func (h *MHNode) crash() {
	h.cancelTimers()
	h.regOld = 0
	h.nextSeq = 0
	h.nextBatchSeq = 0
	h.seen = make(map[ids.RequestID]bool)
	h.issuedAt = make(map[ids.RequestID]sim.Time)
	h.outstanding = make(map[ids.RequestID]bool)
	h.queued = nil
	h.offline = nil
	h.admitted = make(map[ids.RequestID]bool)
	h.abandoned = make(map[ids.RequestID]bool)
	h.pending = make(map[ids.RequestID]msg.Request)
	h.busyAttempts = make(map[ids.RequestID]int)
	h.retryMsgs = make(map[ids.RequestID]msg.Message)
	h.deadlines = make(map[ids.RequestID]bool)
	h.batches = make(map[ids.BatchID]*mhBatch)
	h.batchOf = make(map[ids.RequestID]ids.BatchID)
}

// reboot brings a crashed host back under a fresh incarnation (E18,
// World.RestartMH). The journaled offline queue is replayed through the
// incarnation filter: every entry was written by a dead incarnation
// (nothing of the current one can predate the reboot), so each is
// discarded and counted — the requests died with the memory that
// tracked them, and replaying them would resurrect computations with no
// owner. The host then re-registers with the station of the cell it
// woke up in, carrying the new incarnation so stale proxy and station
// state can be scrubbed everywhere.
func (h *MHNode) reboot(inc ids.Incarnation) {
	h.inc = inc
	cell := h.w.loc[h.id]
	h.respMss = cell
	kept := h.offline[:0]
	for _, m := range h.w.loadOffline(h.id) {
		stale := true
		switch v := m.(type) {
		case msg.Request:
			stale = normInc(v.Inc) != normInc(inc)
		case msg.BatchOpen:
			stale = normInc(v.Inc) != normInc(inc)
		case msg.BatchItem:
			stale = normInc(v.Inc) != normInc(inc)
		case msg.BatchCommit:
			// BatchCommit carries no incarnation; it is live only while
			// the host still knows the batch it seals.
			stale = h.batches[v.Batch] == nil
		}
		if stale {
			h.w.Stats.OfflineDroppedStale.Inc()
			continue
		}
		kept = append(kept, m)
	}
	h.offline = kept
	h.w.persistOffline(h.id, h.offline)
	if !h.joined {
		return
	}
	if h.w.cfg.GreetRefresh > 0 {
		h.scheduleRefresh()
	}
	if h.w.IsActive(h.id) && !h.w.IsDisconnected(h.id) {
		// Register announces the new incarnation: the station bumps its
		// own record, scrubs stale held state, and immediately
		// heartbeats the proxy so orphaned entries are swept without
		// waiting for a lease period.
		h.uplink(msg.Register{MH: h.id, Inc: inc})
	}
}

// IssueRequest creates a new service request and transmits it through
// the current respMss (§3.1). While inactive the request is queued and
// sent on the next activation. The returned identifier lets callers
// correlate the eventual result.
func (h *MHNode) IssueRequest(server ids.Server, payload []byte) ids.RequestID {
	if h.w.IsCrashed(h.id) {
		// A crashed host runs no code; the driver's scheduled request
		// simply never happens (E18).
		return ids.RequestID{}
	}
	h.nextSeq++
	req := ids.RequestID{Origin: h.id, Seq: h.nextSeq}
	h.issuedAt[req] = h.w.Kernel.Now()
	h.outstanding[req] = true
	h.w.Stats.RequestsIssued.Inc()
	r := msg.Request{Req: req, Server: server, Payload: payload, Inc: h.inc}
	if h.w.cfg.BusyRetryBase > 0 {
		h.pending[req] = r
	}
	var m msg.Message = r // boxed once for the offline queue, the radio and the timers
	if h.joined && h.w.IsActive(h.id) && h.w.IsDisconnected(h.id) {
		// Out of coverage: journal for in-order replay on reconnection
		// (E17). Retry and deadline timers arm at replay time, not now —
		// a long disconnection must not retry into a dead radio or
		// abandon a request the network never saw.
		h.queueOffline(m)
		return req
	}
	h.transmit(m)
	h.armRequestTimers(req, m)
	return req
}

// transmit routes an outbound protocol message by the host's current
// connectivity: up the radio when possible, into the activation queue
// while inactive or departed, into the journaled offline queue while
// disconnected (E17).
func (h *MHNode) transmit(m msg.Message) {
	switch {
	case !h.joined || !h.w.IsActive(h.id):
		h.queued = append(h.queued, m)
	case h.w.IsDisconnected(h.id):
		h.queueOffline(m)
	default:
		h.uplink(m)
	}
}

// queueOffline journals one message into the offline queue (E17): the
// queue rides the E10 stable-store machinery (write-through on every
// mutation) and replays in issue order on reconnection.
func (h *MHNode) queueOffline(m msg.Message) {
	h.offline = append(h.offline, m)
	h.w.persistOffline(h.id, h.offline)
	h.w.Stats.OfflineQueued.Inc()
}

// armRequestTimers starts the retry chain and the deadline for one
// tracked request, where configured.
func (h *MHNode) armRequestTimers(req ids.RequestID, m msg.Message) {
	if h.w.cfg.RequestTimeout > 0 {
		h.retryMsgs[req] = m
		h.scheduleRetry(req, m)
	}
	if h.w.cfg.RequestDeadline > 0 {
		h.deadlines[req] = true
		h.scheduleDeadline(req)
	}
}

// onReconnect is invoked by the World when a disconnected MH regains
// coverage: re-greet the current cell's station (announcing the host's
// location re-forwards any stranded results), then replay the offline
// queue in issue order. Replay is idempotent — the proxy memoizes
// requests and the MH's own seen-set drops answered ones — and each
// replayed request arms its retry/deadline machinery only now, so the
// disconnection window never counts against the deadline.
func (h *MHNode) onReconnect(cell ids.MSS) {
	old := h.greetOld(h.respMss)
	h.respMss = cell
	h.uplink(msg.Greet{MH: h.id, OldMSS: old, Inc: h.inc})
	offline := h.offline
	h.offline = nil
	h.w.persistOffline(h.id, nil)
	for _, m := range offline {
		switch v := m.(type) {
		case msg.Request:
			if h.seen[v.Req] || h.abandoned[v.Req] {
				continue
			}
			h.armRequestTimers(v.Req, m)
		case msg.BatchItem:
			if h.seen[v.Req] || h.abandoned[v.Req] {
				continue
			}
		}
		h.w.Stats.OfflineReplayed.Inc()
		h.uplink(m)
	}
}

// scheduleDeadline abandons a request that is still un-admitted when its
// deadline expires (see Config.RequestDeadline). Admitted requests are
// covered by the delivery guarantee and are never abandoned; abandoning
// stops the busy-retry machinery for this request.
func (h *MHNode) scheduleDeadline(req ids.RequestID) {
	h.after(h.w.cfg.RequestDeadline, func() {
		delete(h.deadlines, req)
		if h.seen[req] || h.admitted[req] {
			return
		}
		h.abandoned[req] = true
		delete(h.outstanding, req)
		delete(h.pending, req)
		delete(h.busyAttempts, req)
		delete(h.retryMsgs, req)
		h.w.Stats.RequestsAbandoned.Inc()
	})
}

// scheduleRetry re-sends a request whose result has not arrived within
// the configured timeout. This client-side shim covers the one gap RDP
// leaves open by design — reliable *request* sending (the paper assigns
// it to QRPC, §4) — and lets a stationary MH recover a result whose
// wireless delivery was lost (the proxy re-forwards the stored result on
// a duplicate request).
// A disconnected host skips the resend (dead radio) but keeps the chain
// alive for after reconnection.
func (h *MHNode) scheduleRetry(req ids.RequestID, m msg.Message) {
	h.after(h.w.cfg.RequestTimeout, func() {
		if h.seen[req] || h.abandoned[req] || !h.joined {
			delete(h.retryMsgs, req)
			return
		}
		if h.w.IsActive(h.id) && !h.w.IsDisconnected(h.id) {
			h.w.Stats.RequestRetries.Inc()
			h.uplink(m)
		}
		h.scheduleRetry(req, m)
	})
}

// Retransmit re-sends a previously issued request through the current
// respMss — the hook the queued-RPC layer (internal/qrpc) uses for its
// backoff resends. It is a no-op once the result has been received or
// while the host cannot transmit. The proxy deduplicates re-arrivals
// and re-forwards a stored result, so retransmission is always safe.
func (h *MHNode) Retransmit(req ids.RequestID, server ids.Server, payload []byte) {
	if h.seen[req] || h.abandoned[req] || !h.joined || !h.w.IsActive(h.id) ||
		h.w.IsDisconnected(h.id) || h.w.IsCrashed(h.id) {
		return
	}
	h.w.Stats.RequestRetries.Inc()
	h.uplink(msg.Request{Req: req, Server: server, Payload: payload, Inc: h.inc})
}

// onMigrate is invoked by the World when the (active) MH enters a new
// cell: it greets the new station, naming the old one so the Hand-off
// can start (§2, §3.2). From this moment the MH answers only the new
// station.
func (h *MHNode) onMigrate(newCell ids.MSS) {
	old := h.greetOld(h.respMss)
	h.respMss = newCell
	h.uplink(msg.Greet{MH: h.id, OldMSS: old, Inc: h.inc})
}

// onActivate is invoked by the World when the MH becomes active. It
// greets the station of the cell it woke up in — the same station (no
// hand-off; §3.2) or a new one if it was carried while inactive — and
// flushes requests queued during inactivity.
func (h *MHNode) onActivate(cell ids.MSS) {
	old := h.greetOld(h.respMss)
	h.respMss = cell
	h.uplink(msg.Greet{MH: h.id, OldMSS: old, Inc: h.inc})
	queued := h.queued
	h.queued = nil
	for _, m := range queued {
		// Routed, not blindly uplinked: a host that wakes up outside
		// coverage journals its queue for the eventual reconnection.
		h.transmit(m)
	}
}

// HandleMessage implements netsim.Handler for the MH's radio. Per §3.2,
// after greeting a new station the MH "must not reply to any message
// from any MSS other than" it, so traffic from other stations is
// dropped.
func (h *MHNode) HandleMessage(from ids.NodeID, m msg.Message) {
	if from != h.respMss.Node() {
		h.w.Stats.OrphanMessages.Inc()
		return
	}
	if _, ok := m.(msg.RegConfirm); ok {
		// The station confirmed our registration; future greets may
		// anchor their hand-off chain here (see Config.RegConfirm).
		h.regOld = h.respMss
		return
	}
	if a, ok := m.(msg.Admit); ok {
		// The request is past admission control: the delivery guarantee
		// now covers it, so the busy-retry machinery stands down.
		h.admitted[a.Req] = true
		delete(h.pending, a.Req)
		delete(h.busyAttempts, a.Req)
		delete(h.deadlines, a.Req)
		return
	}
	if b, ok := m.(msg.Busy); ok {
		h.onBusy(b.Req)
		return
	}
	if a, ok := m.(msg.BatchAbort); ok {
		h.onBatchAbort(a)
		return
	}
	r, ok := m.(msg.ResultDeliver)
	if !ok {
		h.w.Stats.OrphanMessages.Inc()
		return
	}
	if normInc(r.Inc) != normInc(h.inc) {
		// A result addressed to a dead incarnation of this host (E18):
		// the request's issuer lost its memory, so delivering would hand
		// an answer to a computation that no longer exists. Dropped
		// without an ack — the lease machinery retires the proxy state.
		h.w.Stats.StaleIncarnationDrops.Inc()
		return
	}
	duplicate := h.seen[r.Req]
	h.seen[r.Req] = true
	delete(h.outstanding, r.Req)
	delete(h.pending, r.Req)
	delete(h.busyAttempts, r.Req)
	delete(h.retryMsgs, r.Req)
	delete(h.deadlines, r.Req)
	delete(h.batchOf, r.Req)
	if duplicate {
		h.w.Stats.DuplicateDeliveries.Inc()
	} else {
		h.w.Stats.ResultsDelivered.Inc()
		if at, known := h.issuedAt[r.Req]; known {
			h.w.Stats.ResultLatency.Observe(time.Duration(h.w.Kernel.Now() - at))
		}
	}
	// Assumption 4: an active MH acknowledges every message from its
	// respMss — including retransmissions, or the proxy would re-send
	// forever. The Ack states whether other requests are still awaiting
	// results (§3.3's "not preceded by any new request" condition).
	h.uplink(msg.AckMH{MH: h.id, Req: r.Req, HaveOutstanding: len(h.outstanding) > 0})
	if h.onResult != nil {
		h.onResult(r.Req, r.Payload, duplicate)
	}
}

// onBusy reacts to an admission refusal: re-issue the request after a
// capped exponential backoff with jitter (overload protection, E11).
// The retry is event-driven — each re-issue either gets admitted, gets
// another Busy (scheduling the next, longer backoff), or dies with a
// lost frame, in which case the request deadline is the backstop.
func (h *MHNode) onBusy(req ids.RequestID) {
	m, ok := h.pending[req]
	if !ok || h.seen[req] || h.admitted[req] || h.abandoned[req] {
		return
	}
	attempt := h.busyAttempts[req]
	h.busyAttempts[req] = attempt + 1
	h.after(h.backoff(attempt), func() {
		if _, live := h.pending[req]; !live || h.seen[req] || h.admitted[req] || h.abandoned[req] {
			return
		}
		if !h.joined || !h.w.IsActive(h.id) || h.w.IsDisconnected(h.id) {
			return
		}
		h.w.Stats.BusyRetries.Inc()
		h.uplink(m)
	})
}

// backoff returns min(BusyRetryBase·2^attempt, BusyRetryMax) plus up to
// 50% uniform jitter, so synchronized refused clients don't re-offer
// their load in lockstep.
func (h *MHNode) backoff(attempt int) time.Duration {
	base := h.w.cfg.BusyRetryBase
	max := h.w.cfg.BusyRetryMax
	if max <= 0 {
		max = 32 * base
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if h.rng == nil {
		h.rng = h.w.Kernel.RNG().Fork()
	}
	return d + h.rng.Uniform(0, d/2)
}

// ---------------------------------------------------------------------
// Atomic request batches (E17).

// BeginBatch opens a new atomic request batch: no member result is
// delivered until the whole batch is deliverable (committed with every
// member result present at the proxy), and the proxy-side deadline
// (Config.BatchDeadline) aborts the batch as a unit — all or nothing.
func (h *MHNode) BeginBatch() ids.BatchID {
	if h.w.IsCrashed(h.id) {
		return ids.BatchID{}
	}
	h.nextBatchSeq++
	id := ids.BatchID{Origin: h.id, Seq: h.nextBatchSeq}
	b := &mhBatch{id: id, open: msg.BatchOpen{MH: h.id, Batch: id, Inc: h.inc}}
	h.batches[id] = b
	h.transmit(b.open)
	return id
}

// BatchRequest issues one member request inside an open batch. Its
// result arrives through the normal delivery path, but only once the
// whole batch releases. It panics on an unknown or closed batch —
// batches are driver-local objects, so that is a programming error.
func (h *MHNode) BatchRequest(batch ids.BatchID, server ids.Server, payload []byte) ids.RequestID {
	if h.w.IsCrashed(h.id) {
		return ids.RequestID{}
	}
	b := h.batches[batch]
	if b == nil || b.committed || b.aborted {
		panic(fmt.Sprintf("rdpcore: BatchRequest on closed batch %v", batch))
	}
	h.nextSeq++
	req := ids.RequestID{Origin: h.id, Seq: h.nextSeq}
	h.issuedAt[req] = h.w.Kernel.Now()
	h.outstanding[req] = true
	h.batchOf[req] = batch
	h.w.Stats.RequestsIssued.Inc()
	it := msg.BatchItem{MH: h.id, Batch: batch, Req: req, Server: server, Payload: payload, Inc: h.inc}
	b.items = append(b.items, it)
	h.transmit(it)
	return req
}

// CommitBatch seals the batch. From here the retry chain re-offers the
// whole batch (open, unseen items, commit) on the request-timeout
// period until every member result arrived or the proxy aborted it —
// the batch-level analogue of scheduleRetry.
func (h *MHNode) CommitBatch(batch ids.BatchID) {
	if h.w.IsCrashed(h.id) {
		return
	}
	b := h.batches[batch]
	if b == nil || b.committed || b.aborted {
		return
	}
	b.committed = true
	h.transmit(msg.BatchCommit{MH: h.id, Batch: batch, Count: uint32(len(b.items))})
	h.scheduleBatchRetry(b)
}

// batchResolved reports whether the batch needs no further client
// action: aborted, or committed with every member result delivered.
func (h *MHNode) batchResolved(b *mhBatch) bool {
	if b.aborted {
		return true
	}
	if !b.committed {
		return false
	}
	for _, it := range b.items {
		if !h.seen[it.Req] {
			return false
		}
	}
	return true
}

// scheduleBatchRetry keeps re-offering a committed batch until it
// resolves. Like scheduleRetry it skips the resend while the host
// cannot transmit, keeping the chain alive for later.
func (h *MHNode) scheduleBatchRetry(b *mhBatch) {
	if h.w.cfg.RequestTimeout <= 0 {
		return
	}
	h.after(h.w.cfg.RequestTimeout, func() {
		if h.batchResolved(b) || !h.joined {
			return
		}
		if h.w.IsActive(h.id) && !h.w.IsDisconnected(h.id) {
			h.w.Stats.RequestRetries.Inc()
			h.uplink(b.open)
			for _, it := range b.items {
				if !h.seen[it.Req] {
					h.uplink(it)
				}
			}
			h.uplink(msg.BatchCommit{MH: h.id, Batch: b.id, Count: uint32(len(b.items))})
		}
		h.scheduleBatchRetry(b)
	})
}

// onBatchAbort abandons every member of an aborted batch: the proxy's
// deadline expired before the batch became deliverable, and atomicity
// means no member may be delivered afterwards. A delivered member at
// abort time would be a partial delivery — the proxy guarantees this
// cannot happen, so it is counted as a violation.
func (h *MHNode) onBatchAbort(a msg.BatchAbort) {
	// Union the abort's member list with our own: a re-abort from a
	// migrated proxy incarnation carries an empty list (the memo travels
	// without members), but this host knows exactly what it issued.
	reqs := append([]ids.RequestID(nil), a.Reqs...)
	if b := h.batches[a.Batch]; b != nil {
		b.aborted = true
		for _, it := range b.items {
			reqs = append(reqs, it.Req)
		}
	}
	handled := make(map[ids.RequestID]bool, len(reqs))
	for _, req := range reqs {
		if handled[req] {
			continue
		}
		handled[req] = true
		if h.seen[req] {
			h.w.Stats.Violations.Inc()
			continue
		}
		if h.abandoned[req] {
			continue
		}
		h.abandoned[req] = true
		delete(h.outstanding, req)
		delete(h.pending, req)
		delete(h.busyAttempts, req)
		delete(h.retryMsgs, req)
		delete(h.deadlines, req)
		delete(h.batchOf, req)
	}
}

// BatchStatus reports the terminal view of a batch at this host: how
// many member results have been delivered, the member count, and
// whether the batch was aborted (experiment and test hook).
func (h *MHNode) BatchStatus(id ids.BatchID) (delivered, members int, aborted bool) {
	b := h.batches[id]
	if b == nil {
		return 0, 0, false
	}
	for _, it := range b.items {
		if h.seen[it.Req] {
			delivered++
		}
	}
	return delivered, len(b.items), b.aborted
}

// uplink transmits over the wireless link to the current respMss.
func (h *MHNode) uplink(m msg.Message) {
	h.w.Wireless.SendUplink(h.id, h.respMss, m)
}
