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
	// inc is the host's current incarnation number (E18): the one word of
	// non-volatile flash on the device, which crash() leaves alone and
	// World.RestartMH bumps. It is stamped on every registration and
	// request so that, after a crash-with-amnesia and restart, state
	// belonging to the dead incarnation can be recognized and scrubbed
	// everywhere — and a result addressed to a dead incarnation is never
	// delivered to its successor.
	inc ids.Incarnation

	// Device state — the ground truth the radio gate (World.reachable)
	// reads, kept on the device so it travels with it between region
	// worlds: the cell the host is in, whether it is active (§2),
	// disconnected — radio gone entirely, as opposed to merely inactive:
	// no frame reaches it in either direction, and requests it issues are
	// journaled for replay on reconnection (E17) — and crashed: fail-
	// stopped with amnesia, dead to the radio until World.RestartMH (E18).
	loc          ids.MSS
	active       bool
	disconnected bool
	crashed      bool
	// xferJournal carries the host's offline journal — the one piece of
	// its durable state that lives in a world's stable store — from
	// DetachMH to AttachMH.
	xferJournal []byte

	// reqs is the request table, indexed by Seq-1: "Seq is unique per MH"
	// (assumption 5), so the host's own sequence numbers are the index.
	// stray holds the rows of identifiers this host never issued (a
	// foreign origin, or a sequence beyond the table), made on first use.
	// nOutstanding counts the rows still awaiting their result; whether
	// it is zero is piggybacked on every Ack (msg.AckMH.HaveOutstanding).
	reqs         []mhReq
	stray        map[ids.RequestID]*mhReq
	nOutstanding int

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

	// sent retains a request's message while it may still have to go out
	// again: a busy re-issue (a Busy NACK only carries the identifier) or
	// a timeout retry, which of the two being the row's reqBusyRetry and
	// reqRetry flags. Made on first write: only busy-retry and timeout
	// configurations fill it.
	sent map[ids.RequestID]msg.Message
	// rng is a lazily forked random stream for backoff jitter. Lazy so
	// configurations without busy-retry never draw from the kernel
	// stream (golden traces depend on the default draw order).
	rng *sim.RNG

	// timerGen is the generation of the timers this host arms (refresh
	// beacons, request retries, deadlines, busy backoffs, batch retries):
	// leave, crash and DetachMH move it on, and a timer armed under an
	// older one fires as a no-op — against a membership, a memory or a
	// world the host no longer has. Timers voided at detach re-arm on
	// attach from the request table's reqRetry and reqDeadline flags.
	timerGen uint64

	// --- Atomic request batches (E17) ---

	nextBatchSeq uint32
	// batches holds this host's batch bookkeeping, made on first write.
	batches map[ids.BatchID]*mhBatch

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

// mhReq is one row of a host's request table: when the request was
// issued, how many Busy NACKs it has drawn (driving the capped
// exponential backoff), and its life-cycle flags.
type mhReq struct {
	issuedAt sim.Time
	busy     uint32
	flags    uint8
}

// Request life-cycle flags (mhReq.flags).
const (
	// reqIssued: this host issued the request, so issuedAt is meaningful
	// (stray rows never carry it).
	reqIssued uint8 = 1 << iota
	// reqOutstanding: issued and still awaiting its result.
	reqOutstanding
	// reqSeen: the result was received — the duplicate-detection set of
	// assumption 5.
	reqSeen
	// reqAdmitted: the responsible MSS acknowledged the request past
	// admission control (msg.Admit); it is covered by the delivery
	// guarantee and is never abandoned or busy-retried again.
	reqAdmitted
	// reqAbandoned: never admitted and its deadline expired
	// (Config.RequestDeadline), or its batch aborted; the client gave up.
	reqAbandoned
	// reqDeadline: a request deadline is armed, to be re-armed on attach.
	reqDeadline
	// reqBusyRetry: a Busy NACK for the request is answered by re-issuing
	// it (Config.BusyRetryBase) — until it is admitted or settled.
	reqBusyRetry
	// reqRetry: a timeout retry chain is live (Config.RequestTimeout), to
	// be re-armed on attach.
	reqRetry
)

// newMHNode constructs a mobile host bound to a world.
func newMHNode(id ids.MH, w *World) *MHNode {
	return &MHNode{id: id, w: w, inc: ids.FirstIncarnation}
}

// find returns req's row, or nil when the host holds no state for it.
func (h *MHNode) find(req ids.RequestID) *mhReq {
	if i := req.Seq - 1; req.Origin == h.id && i < uint32(len(h.reqs)) {
		return &h.reqs[i]
	}
	return h.stray[req]
}

// row returns req's row, making a stray one for an identifier this host
// did not issue. The pointer is good until the next issue grows the table.
func (h *MHNode) row(req ids.RequestID) *mhReq {
	q := h.find(req)
	if q == nil {
		q = new(mhReq)
		setLazy(&h.stray, req, q)
	}
	return q
}

// has reports whether req carries any of the given flags.
func (h *MHNode) has(req ids.RequestID, flags uint8) bool {
	q := h.find(req)
	return q != nil && q.flags&flags != 0
}

// flagged lists the requests carrying flag, in identifier order.
func (h *MHNode) flagged(flag uint8) []ids.RequestID {
	var out []ids.RequestID
	for i := range h.reqs {
		if h.reqs[i].flags&flag != 0 {
			out = append(out, ids.RequestID{Origin: h.id, Seq: uint32(i + 1)})
		}
	}
	for req, q := range h.stray {
		if q.flags&flag != 0 {
			out = append(out, req)
		}
	}
	sortRequestIDs(out)
	return out
}

// newRequest appends a row to the request table and returns its
// identifier: the sequence number is the row's index plus one.
func (h *MHNode) newRequest() ids.RequestID {
	req := ids.RequestID{Origin: h.id, Seq: uint32(len(h.reqs) + 1)}
	q := mhReq{issuedAt: h.w.Kernel.Now(), flags: reqIssued | reqOutstanding}
	if s := h.stray[req]; s != nil {
		// What was noted about the identifier before it was issued (a
		// result beyond the table) stays noted once the table reaches it.
		q.flags |= s.flags
		q.busy = s.busy
		delete(h.stray, req)
	}
	h.reqs = append(h.reqs, q)
	h.nOutstanding++
	h.w.Stats.RequestsIssued.Inc()
	return req
}

// settle ends a request's client-side life (result received, abandoned
// or aborted): it no longer counts as outstanding and its busy-retry,
// retry-chain and deadline state is dropped.
func (h *MHNode) settle(req ids.RequestID, q *mhReq) {
	if q.flags&reqOutstanding != 0 {
		q.flags &^= reqOutstanding
		h.nOutstanding--
	}
	q.busy = 0
	h.unsend(req, q, reqDeadline|reqBusyRetry|reqRetry)
}

// unsend clears flags of req's row and drops the retained message once
// neither a busy re-issue nor a retry can want it.
func (h *MHNode) unsend(req ids.RequestID, q *mhReq, flags uint8) {
	q.flags &^= flags
	if q.flags&(reqBusyRetry|reqRetry) == 0 {
		delete(h.sent, req)
	}
}

// after is the one way a host's own timer gets back in, as
// MSSNode.after is a station's: fn runs after d unless the host's timer
// generation moved on in between (leave, crash, DetachMH), in which case
// the event fires and does nothing. Nothing is cancelled.
func (h *MHNode) after(d time.Duration, fn func()) {
	gen := h.timerGen
	h.w.Kernel.Defer(d, func() {
		if h.timerGen == gen {
			fn()
		}
	})
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
	for _, req := range h.flagged(reqRetry) {
		h.scheduleRetry(req, h.sent[req])
	}
	for _, req := range h.flagged(reqDeadline) {
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
func (h *MHNode) Seen(req ids.RequestID) bool { return h.has(req, reqSeen) }

// Admitted reports whether the responsible MSS acknowledged req past
// admission control (overload protection, E11). A request that was
// delivered counts as admitted even if the explicit Admit was lost.
func (h *MHNode) Admitted(req ids.RequestID) bool { return h.has(req, reqAdmitted|reqSeen) }

// Abandoned reports whether the client gave up on a never-admitted
// request at its deadline (see Config.RequestDeadline).
func (h *MHNode) Abandoned(req ids.RequestID) bool { return h.has(req, reqAbandoned) }

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
		if h.active && !h.disconnected {
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
	h.timerGen++
	for _, req := range h.flagged(reqDeadline | reqRetry) {
		h.unsend(req, h.find(req), reqDeadline|reqRetry)
	}
}

// crash wipes the host's volatile state (E18, World.CrashMH): every
// timer, the request table — and with it the duplicate-detection set,
// the outstanding/admitted/abandoned bookkeeping and the request
// sequence, so identifiers restart under the next incarnation — the
// pending and retry messages, the activation and offline queues, and
// the batch objects with their sequence counter. Only what the model
// puts in non-volatile flash survives: the incarnation word (inc) and
// the journaled offline queue in the stable store. The membership
// itself survives too — the host never sent a Leave, so the system
// still considers it registered; it is the *memory* that died.
func (h *MHNode) crash() {
	h.timerGen++
	h.regOld = 0
	h.nextBatchSeq = 0
	h.reqs, h.stray, h.nOutstanding = nil, nil, 0
	h.queued = nil
	h.offline = nil
	h.sent = nil
	h.batches = nil
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
	h.respMss = h.loc
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
	if h.active && !h.disconnected {
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
	if h.crashed {
		// A crashed host runs no code; the driver's scheduled request
		// simply never happens (E18).
		return ids.RequestID{}
	}
	req := h.newRequest()
	// Boxed once for the offline queue, the radio, the timers and sent.
	var m msg.Message = msg.Request{Req: req, Server: server, Payload: payload, Inc: h.inc}
	if h.w.cfg.BusyRetryBase > 0 {
		h.row(req).flags |= reqBusyRetry
		setLazy(&h.sent, req, m)
	}
	if h.joined && h.active && h.disconnected {
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
	case !h.joined || !h.active:
		h.queued = append(h.queued, m)
	case h.disconnected:
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
		h.row(req).flags |= reqRetry
		setLazy(&h.sent, req, m)
		h.scheduleRetry(req, m)
	}
	if h.w.cfg.RequestDeadline > 0 {
		h.row(req).flags |= reqDeadline
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
			if h.has(v.Req, reqSeen|reqAbandoned) {
				continue
			}
			h.armRequestTimers(v.Req, m)
		case msg.BatchItem:
			if h.has(v.Req, reqSeen|reqAbandoned) {
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
		q := h.row(req)
		q.flags &^= reqDeadline
		if q.flags&(reqSeen|reqAdmitted) != 0 {
			return
		}
		q.flags |= reqAbandoned
		h.settle(req, q)
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
		if h.has(req, reqSeen|reqAbandoned) || !h.joined {
			h.unsend(req, h.row(req), reqRetry)
			return
		}
		if h.active && !h.disconnected {
			h.w.Stats.RequestRetries.Inc()
			h.uplink(m)
		}
		h.scheduleRetry(req, m)
	})
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
		q := h.row(a.Req)
		q.flags |= reqAdmitted
		q.busy = 0
		h.unsend(a.Req, q, reqDeadline|reqBusyRetry)
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
	q := h.row(r.Req)
	duplicate := q.flags&reqSeen != 0
	q.flags |= reqSeen
	h.settle(r.Req, q)
	if duplicate {
		h.w.Stats.DuplicateDeliveries.Inc()
	} else {
		h.w.Stats.ResultsDelivered.Inc()
		if q.flags&reqIssued != 0 {
			h.w.Stats.ResultLatency.Observe(time.Duration(h.w.Kernel.Now() - q.issuedAt))
		}
	}
	// Assumption 4: an active MH acknowledges every message from its
	// respMss — including retransmissions, or the proxy would re-send
	// forever. The Ack states whether other requests are still awaiting
	// results (§3.3's "not preceded by any new request" condition).
	h.uplink(msg.AckMH{MH: h.id, Req: r.Req, HaveOutstanding: h.nOutstanding > 0})
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
	const done = reqSeen | reqAdmitted | reqAbandoned
	q := h.find(req)
	if q == nil || q.flags&reqBusyRetry == 0 || q.flags&done != 0 {
		return
	}
	attempt := int(q.busy)
	q.busy++
	m := h.sent[req]
	h.after(h.backoff(attempt), func() {
		if !h.has(req, reqBusyRetry) || h.has(req, done) {
			return
		}
		if !h.joined || !h.active || h.disconnected {
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
	if h.crashed {
		return ids.BatchID{}
	}
	h.nextBatchSeq++
	id := ids.BatchID{Origin: h.id, Seq: h.nextBatchSeq}
	b := &mhBatch{id: id, open: msg.BatchOpen{MH: h.id, Batch: id, Inc: h.inc}}
	setLazy(&h.batches, id, b)
	h.transmit(b.open)
	return id
}

// BatchRequest issues one member request inside an open batch. Its
// result arrives through the normal delivery path, but only once the
// whole batch releases. It panics on an unknown or closed batch —
// batches are driver-local objects, so that is a programming error.
func (h *MHNode) BatchRequest(batch ids.BatchID, server ids.Server, payload []byte) ids.RequestID {
	if h.crashed {
		return ids.RequestID{}
	}
	b := h.batches[batch]
	if b == nil || b.committed || b.aborted {
		panic(fmt.Sprintf("rdpcore: BatchRequest on closed batch %v", batch))
	}
	req := h.newRequest()
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
	if h.crashed {
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
		if !h.has(it.Req, reqSeen) {
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
		if h.active && !h.disconnected {
			h.w.Stats.RequestRetries.Inc()
			h.uplink(b.open)
			for _, it := range b.items {
				if !h.has(it.Req, reqSeen) {
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
	// Union the abort's member list with our own: the proxy names the
	// members it registered, but this host knows exactly what it issued —
	// also an item that never reached the proxy before the abort.
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
		q := h.row(req)
		if q.flags&reqSeen != 0 {
			h.w.violate(violBatchPartial, h.id, a.Proxy, req)
			continue
		}
		if q.flags&reqAbandoned != 0 {
			continue
		}
		q.flags |= reqAbandoned
		h.settle(req, q)
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
		if h.has(it.Req, reqSeen) {
			delivered++
		}
	}
	return delivered, len(b.items), b.aborted
}

// uplink transmits over the wireless link to the current respMss.
func (h *MHNode) uplink(m msg.Message) {
	h.w.Wireless.SendUplink(h.id, h.respMss, m)
}
