package rdpcore

import (
	"fmt"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
)

// MHNode is a mobile host (§2): a disconnected computer with a
// system-wide unique identification that is either active or inactive,
// joins and leaves the system, migrates between cells, issues requests
// through its respMss, and acknowledges every message received from it
// (assumption 4). Duplicate detection (assumption 5) is implemented with
// the set of request identifiers already answered.
type MHNode struct {
	id ids.MH
	// seq numbers the host's registrations within its incarnation
	// (msg.Greet.Seq): a greet that names a new cell takes the next one,
	// a beacon or a reactivation in place repeats it, and a reboot
	// starts over at 0, the sequence of its Register.
	seq     uint32
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

	// reqs is the request table's window: "Seq is unique per MH"
	// (assumption 5), so row i is the host's own sequence number
	// base+i+1. Each issue drops the leading rows that hold nothing
	// pending (reqPending), whether their result was seen or they were
	// abandoned, moving base on, so the window spans the requests still
	// in play; an abandoned row moves into stray, and any other own
	// identifier at or below base reads as issued and seen (past). inline
	// is the window's array until more than two rows are in play at once.
	// stray holds the rows outside the window, made on first use: those
	// of identifiers this host never issued (a foreign origin, or a
	// sequence beyond the window) and the abandoned rows it has passed.
	// nOutstanding counts the rows still awaiting their result; whether
	// it is zero is piggybacked on every Ack (msg.AckMH.HaveOutstanding).
	reqs         []mhReq
	base         uint32
	inline       [2]mhReq
	stray        map[ids.RequestID]*mhReq
	nOutstanding int

	// queued holds requests issued while inactive; they are transmitted
	// on the next activation (a minimal QRPC-style request queue; the
	// paper cites Rover's QRPC as the complementary mechanism for
	// reliable request sending). It keeps envelopes, in an array the
	// world's spareQueue lends it while the host has something queued.
	queued []msg.Envelope
	// offline holds requests issued while disconnected (out of coverage
	// entirely, E17), in issue order. The queue is journaled through the
	// world's stable store on every mutation and replayed verbatim on
	// reconnection; the proxy's request memoization and the MH's own
	// seen-set make the replay idempotent.
	offline []msg.Message

	// sent retains a request's envelope while it may still have to go out
	// again: a busy re-issue (a Busy NACK only carries the identifier) or
	// a timeout retry, which of the two being the row's reqBusyRetry and
	// reqRetry flags; the timer reads it when it fires (resend). Made on
	// first write: only busy-retry and timeout configurations fill it.
	sent map[ids.RequestID]msg.Envelope
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

	// batchWin holds the host's atomic batches (E17) from its floor up,
	// made on its first batch.
	batchWin *batchWindow

	// onResult, when set, observes every result delivery (first or
	// duplicate) for application callbacks and tests.
	onResult func(req ids.RequestID, payload []byte, duplicate bool)
}

// batchWindow is a host's batch table, kept as its request table is: row
// i is the host's batch resolved+i+1. Every batch up to resolved is
// resolved and forgotten, and resolved+1 is the floor a BatchOpen
// carries, below which the proxy forgets the host's batches too; floor
// moves it past each leading resolved row.
type batchWindow struct {
	resolved uint32
	rows     []mhBatch
}

// mhBatch is the client side of one atomic batch: the items it re-sends
// until the batch resolves, which also tell resolution (all delivered, or
// aborted).
type mhBatch struct {
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

	// reqPending: something is still pending on the row, so it holds the
	// window; a stray row never carries any of these.
	reqPending = reqOutstanding | reqDeadline | reqBusyRetry | reqRetry
)

// newMHNode constructs a mobile host bound to a world.
func newMHNode(id ids.MH, w *World) *MHNode {
	h := &MHNode{id: id, w: w, inc: ids.FirstIncarnation}
	h.reqs = h.inline[:0]
	return h
}

// find returns req's row, or nil when the host holds no state for it or
// req is below the window and was not abandoned.
func (h *MHNode) find(req ids.RequestID) *mhReq {
	if i := req.Seq - 1 - h.base; req.Origin == h.id && req.Seq > h.base && i < uint32(len(h.reqs)) {
		return &h.reqs[i]
	}
	return h.stray[req]
}

// past reports whether req is one of the host's own requests below the
// window: issued, and its result seen unless stray keeps its row as
// abandoned.
func (h *MHNode) past(req ids.RequestID) bool {
	return req.Origin == h.id && req.Seq > 0 && req.Seq <= h.base
}

// row returns req's row for writing, making a stray one for an identifier
// this host did not issue. A request below the window without a row gets
// the world's pastRow, written afresh, so what the caller writes there is
// forgotten. The pointer is good until the next issue moves the window.
func (h *MHNode) row(req ids.RequestID) *mhReq {
	if q := h.find(req); q != nil {
		return q
	}
	if h.past(req) {
		h.w.pastRow = mhReq{flags: reqIssued | reqSeen}
		return &h.w.pastRow
	}
	q := new(mhReq)
	setLazy(&h.stray, req, q)
	return q
}

// has reports whether req carries any of the given flags.
func (h *MHNode) has(req ids.RequestID, flags uint8) bool {
	if q := h.find(req); q != nil {
		return q.flags&flags != 0
	}
	return h.past(req) && flags&(reqIssued|reqSeen) != 0
}

// flagged lists the requests carrying flag, one of reqPending's, in
// identifier order: a row with something pending is in the window, never
// stray.
func (h *MHNode) flagged(flag uint8) []ids.RequestID {
	var out []ids.RequestID
	for i := range h.reqs {
		if h.reqs[i].flags&flag != 0 {
			out = append(out, ids.RequestID{Origin: h.id, Seq: h.base + uint32(i+1)})
		}
	}
	return out
}

// newRequest moves the window past its settled leading rows, appends a
// row and returns its identifier: the sequence number after the window's
// last.
func (h *MHNode) newRequest() ids.RequestID {
	done := 0
	for ; done < len(h.reqs) && h.reqs[done].flags&reqPending == 0 && h.reqs[done].flags&(reqSeen|reqAbandoned) != 0; done++ {
		if h.reqs[done].flags&reqAbandoned != 0 {
			q := h.reqs[done]
			setLazy(&h.stray, ids.RequestID{Origin: h.id, Seq: h.base + uint32(done+1)}, &q)
		}
	}
	h.base += uint32(done)
	h.reqs = append(h.reqs[:0], h.reqs[done:]...)
	req := ids.RequestID{Origin: h.id, Seq: h.base + uint32(len(h.reqs)) + 1}
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

// hostTimer is one timer a host arms: what it is for, the request or
// batch it is about, and the generation it was armed in. The world defers
// it as a value — through one sim.Calls, or, for the constant-delay
// retries and deadlines, one sim.Timeouts each — so a host timer is no
// closure; a request that goes out again is read from sent.
type hostTimer struct {
	h     *MHNode
	kind  hostTimerKind
	batch uint32 // timerBatchRetry: the batch's sequence
	req   ids.RequestID
	gen   uint64
}

// hostTimerKind says what a hostTimer does when it fires.
type hostTimerKind uint8

const (
	timerRefresh    hostTimerKind = iota // the registration beacon (Config.GreetRefresh)
	timerRetry                           // a request's timeout retry (Config.RequestTimeout)
	timerDeadline                        // a request's admission deadline (Config.RequestDeadline)
	timerBusy                            // a busy re-issue after backoff (Config.BusyRetryBase)
	timerBatchRetry                      // a committed batch's re-offer
)

// after is the one way a host's own timer gets back in, as
// MSSNode.after is a station's: t fires after d unless the host's timer
// generation moved on in between (leave, crash, DetachMH), in which case
// it does nothing. Nothing is cancelled. Retries wait in the world's
// retries and deadlines in its deadlines, whose delays are d
// (Config.RequestTimeout, Config.RequestDeadline): a timer that can only
// do nothing any more (dead) is dropped there without an event.
func (h *MHNode) after(d time.Duration, t hostTimer) {
	t.h, t.gen = h, h.timerGen
	switch t.kind {
	case timerRetry, timerBatchRetry:
		h.w.retries.Add(t)
	case timerDeadline:
		h.w.deadlines.Add(t)
	default:
		h.w.hostTimers.Defer(d, t)
	}
}

// dead reports that a retry or a deadline would do nothing at its due,
// for good: its host's generation moved on, or its request or batch is
// settled — settle (or the Admit) already cleared the flags the timer
// would clear, and a batch below the floor is resolved. A host that left
// is not enough: leave moves the generation on, and a retry of a host
// that never joined un-flags its request at its due.
func (t hostTimer) dead() bool {
	h := t.h
	if h.timerGen != t.gen {
		return true
	}
	switch t.kind {
	case timerRetry:
		return h.has(t.req, reqSeen|reqAbandoned)
	case timerDeadline:
		return h.has(t.req, reqSeen|reqAdmitted)
	case timerBatchRetry:
		return h.batchResolved(h.batch(ids.BatchID{Origin: h.id, Seq: t.batch}))
	}
	return false
}

// fire runs the timer, unless its host's generation moved on.
func (t hostTimer) fire() {
	h := t.h
	if h.timerGen != t.gen {
		return
	}
	switch t.kind {
	case timerRefresh:
		h.refresh()
	case timerRetry:
		h.retry(t.req)
	case timerDeadline:
		h.deadline(t.req)
	case timerBusy:
		h.busyRetry(t.req)
	case timerBatchRetry:
		h.batchRetry(t.batch)
	}
}

// rearmTimers rebuilds the timer set from live state after an attach:
// the refresh beacon, one retry chain per un-answered tracked request,
// one full deadline per armed request (conservatively restarted — a
// deadline never fires early), and the retry chain of every unresolved
// committed batch, walked from the floor up. Requests and batches are
// armed in sequence order so the kernel event sequence stays a pure
// function of the seed.
func (h *MHNode) rearmTimers() {
	if !h.joined {
		return
	}
	if h.w.cfg.GreetRefresh > 0 {
		h.scheduleRefresh()
	}
	for _, req := range h.flagged(reqRetry) {
		h.scheduleRetry(req)
	}
	for _, req := range h.flagged(reqDeadline) {
		h.scheduleDeadline(req)
	}
	if bw := h.batchWin; bw != nil {
		for i, floor := 0, h.floor(); i < len(bw.rows); i++ {
			if b := &bw.rows[i]; b.committed && !h.batchResolved(b) {
				h.scheduleBatchRetry(floor + uint32(i))
			}
		}
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

// greet greets the station of cell, the host's respMss from now on,
// naming the old one so a Hand-off can start (§2, §3.2); from this moment
// the MH answers only that station. The World calls it when an active
// MH enters a new cell. A greet that names a new cell starts a new
// registration and takes the next sequence number; one to the cell the
// host is registered in repeats it.
func (h *MHNode) greet(cell ids.MSS) {
	old := h.greetOld(h.respMss)
	if cell != h.respMss {
		h.seq++
	}
	h.respMss = cell
	h.uplink(h.w.view(msg.Greet{MH: h.id, OldMSS: old, Inc: h.inc, Seq: h.seq}.Leg()))
}

// scheduleRefresh re-greets the current respMss on a fixed period while
// the MH is active (see Config.GreetRefresh). A disconnected host skips
// the beacon (its radio is gone) but keeps the period running.
func (h *MHNode) scheduleRefresh() {
	h.after(h.w.cfg.GreetRefresh, hostTimer{kind: timerRefresh})
}

// refresh is the refresh beacon's period ending.
func (h *MHNode) refresh() {
	if !h.joined {
		return
	}
	if h.active && !h.disconnected {
		h.greet(h.respMss) // the beacon: a greet repeating the registration
	}
	h.scheduleRefresh()
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
// the batch window with its floor. Only what the model puts in
// non-volatile flash survives: the incarnation word (inc) and the
// journaled offline queue in the stable store. The membership
// itself survives too — the host never sent a Leave, so the system
// still considers it registered; it is the *memory* that died.
func (h *MHNode) crash() {
	h.timerGen++
	h.regOld = 0
	h.reqs, h.base, h.stray, h.nOutstanding = h.reqs[:0], 0, nil, 0
	h.queued = nil
	h.offline = nil
	h.sent = nil
	h.batchWin = nil
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
	h.inc, h.seq = inc, 0
	h.respMss = h.loc
	kept := h.offline[:0]
	for _, m := range h.w.loadOffline(h.id) {
		stale := true
		switch m.Kind() {
		case msg.KindRequest:
			stale = normInc(h.w.legOf(m).Inc) != normInc(inc)
		case msg.KindBatchOpen:
			stale = normInc(m.(msg.BatchOpen).Inc) != normInc(inc)
		case msg.KindBatchItem:
			stale = normInc(m.(msg.BatchItem).Inc) != normInc(inc)
		case msg.KindBatchCommit:
			stale = normInc(m.(msg.BatchCommit).Inc) != normInc(inc)
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
	// The request flies as a leg; whatever keeps it — sent, the
	// activation queue — keeps its envelope, and only the offline journal
	// boxes it.
	m := h.w.view(msg.Request{Req: req, Server: server, Payload: payload, Inc: h.inc}.Leg())
	e := msg.EnvelopeOf(m)
	if h.w.cfg.BusyRetryBase > 0 {
		h.row(req).flags |= reqBusyRetry
		setLazy(&h.sent, req, e)
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
	h.armRequestTimers(req, e)
	return req
}

// transmit routes an outbound protocol message by the host's current
// connectivity: up the radio when possible, into the activation queue
// while inactive or departed, into the journaled offline queue while
// disconnected (E17). It borrows m (a door's rule): a queue keeps a copy.
func (h *MHNode) transmit(m msg.Message) {
	switch {
	case !h.joined || !h.active:
		if h.queued == nil {
			h.queued, h.w.spareQueue = h.w.spareQueue, nil
		}
		h.queued = append(h.queued, msg.EnvelopeOf(m))
	case h.disconnected:
		h.queueOffline(m)
	default:
		h.uplink(m)
	}
}

// queueOffline journals one message into the offline queue (E17): the
// queue rides the E10 stable-store machinery (write-through on every
// mutation) and replays in issue order on reconnection. It keeps what it
// is shown boxed (msg.Keep), as the journal decodes it.
func (h *MHNode) queueOffline(m msg.Message) {
	h.offline = append(h.offline, msg.Keep(m))
	h.w.persistOffline(h.id, h.offline)
	h.w.Stats.OfflineQueued.Inc()
}

// armRequestTimers starts the retry chain and the deadline for one
// tracked request, where configured; the chain keeps e, the request's
// envelope, in sent.
func (h *MHNode) armRequestTimers(req ids.RequestID, e msg.Envelope) {
	if h.w.cfg.RequestTimeout > 0 {
		h.row(req).flags |= reqRetry
		setLazy(&h.sent, req, e)
		h.scheduleRetry(req)
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
	h.greet(cell)
	offline := h.offline
	h.offline = nil
	h.w.persistOffline(h.id, nil)
	for _, m := range offline {
		switch m.Kind() {
		case msg.KindRequest:
			req := h.w.legOf(m).Req
			if h.has(req, reqSeen|reqAbandoned) {
				continue
			}
			h.armRequestTimers(req, msg.EnvelopeOf(m))
		case msg.KindBatchItem:
			if h.has(m.(msg.BatchItem).Req, reqSeen|reqAbandoned) {
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
	h.after(h.w.cfg.RequestDeadline, hostTimer{kind: timerDeadline, req: req})
}

// deadline is req's deadline expiring.
func (h *MHNode) deadline(req ids.RequestID) {
	q := h.row(req)
	q.flags &^= reqDeadline
	if q.flags&(reqSeen|reqAdmitted) != 0 {
		return
	}
	q.flags |= reqAbandoned
	h.settle(req, q)
	h.w.Stats.RequestsAbandoned.Inc()
}

// scheduleRetry re-sends a request whose result has not arrived within
// the configured timeout. This client-side shim covers the one gap RDP
// leaves open by design — reliable *request* sending (the paper assigns
// it to QRPC, §4) — and lets a stationary MH recover a result whose
// wireless delivery was lost (the proxy re-forwards the stored result on
// a duplicate request).
// A disconnected host skips the resend (dead radio) but keeps the chain
// alive for after reconnection.
func (h *MHNode) scheduleRetry(req ids.RequestID) {
	h.after(h.w.cfg.RequestTimeout, hostTimer{kind: timerRetry, req: req})
}

// retry is req's timeout expiring: re-send it and wait again, or end the
// chain once the request is settled.
func (h *MHNode) retry(req ids.RequestID) {
	if h.has(req, reqSeen|reqAbandoned) || !h.joined {
		h.unsend(req, h.row(req), reqRetry)
		return
	}
	if h.active && !h.disconnected {
		h.w.Stats.RequestRetries.Inc()
		h.resend(req)
	}
	h.scheduleRetry(req)
}

// resend uplinks req's retained request again: a view of it, shown from
// the world's turn slot since the uplink borrows what it is shown.
func (h *MHNode) resend(req ids.RequestID) {
	h.w.turn = h.sent[req]
	h.uplink(h.w.turn.Message())
}

// onActivate is invoked by the World when the MH becomes active. It
// greets the station of the cell it woke up in — the same station (no
// hand-off; §3.2) or a new one if it was carried while inactive — and
// flushes requests queued during inactivity.
func (h *MHNode) onActivate(cell ids.MSS) {
	h.greet(cell)
	// Routed, not blindly uplinked: a host that wakes up outside coverage
	// journals its queue for the eventual reconnection. An entry routed
	// back into the queue lands on one already taken, so the array is
	// reused in place; emptied, it goes back to the world.
	queued := h.queued
	h.queued = queued[:0]
	for i := range queued {
		h.w.turn = queued[i]
		h.transmit(h.w.turn.Message())
	}
	clear(queued[len(h.queued):])
	if len(h.queued) == 0 {
		if cap(queued) > cap(h.w.spareQueue) {
			h.w.spareQueue = queued[:0]
		}
		h.queued = nil
	}
}

// HandleMessage implements netsim.Handler for the MH's radio: the host's
// one door. Per §3.2, after greeting a new station the MH "must not
// reply to any message from any MSS other than" it, so traffic from
// other stations is dropped.
func (h *MHNode) HandleMessage(from ids.NodeID, m msg.Message) {
	if from != h.respMss.Node() {
		h.w.Stats.OrphanMessages.Inc()
		return
	}
	switch m.Kind() {
	case msg.KindRegConfirm:
		// The station confirmed our registration; future greets may
		// anchor their hand-off chain here (see Config.RegConfirm).
		h.regOld = h.respMss
	case msg.KindAdmit:
		// The request is past admission control: the delivery guarantee
		// now covers it, so the busy-retry machinery stands down.
		req := m.(msg.Admit).Req
		q := h.row(req)
		q.flags |= reqAdmitted
		q.busy = 0
		h.unsend(req, q, reqDeadline|reqBusyRetry)
	case msg.KindBusy:
		h.onBusy(m.(msg.Busy).Req)
	case msg.KindBatchAbort:
		h.onBatchAbort(m.(msg.BatchAbort))
	case msg.KindResultDeliver:
		h.deliverResult(h.w.legOf(m).ResultDeliver())
	default:
		h.w.Stats.OrphanMessages.Inc()
	}
}

// deliverResult takes a result from the respMss and acknowledges it.
func (h *MHNode) deliverResult(r msg.ResultDeliver) {
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
	h.uplink(h.w.view(msg.AckMH{MH: h.id, Req: r.Req, HaveOutstanding: h.nOutstanding > 0}.Leg()))
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
	h.after(h.backoff(attempt), hostTimer{kind: timerBusy, req: req})
}

// busyRetry is a busy backoff ending: re-issue req unless it was settled
// or admitted meanwhile, or the host cannot transmit.
func (h *MHNode) busyRetry(req ids.RequestID) {
	if !h.has(req, reqBusyRetry) || h.has(req, reqSeen|reqAdmitted|reqAbandoned) {
		return
	}
	if !h.joined || !h.active || h.disconnected {
		return
	}
	h.w.Stats.BusyRetries.Inc()
	h.resend(req)
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
	if h.batchWin == nil {
		h.batchWin = new(batchWindow)
	}
	floor := h.floor()
	id := ids.BatchID{Origin: h.id, Seq: floor + uint32(len(h.batchWin.rows))}
	h.batchWin.rows = append(h.batchWin.rows, mhBatch{})
	h.transmit(msg.BatchOpen{MH: h.id, Batch: id, Inc: h.inc, Floor: floor})
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
	b := h.batch(batch)
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
	b := h.batch(batch)
	if b == nil || b.committed || b.aborted {
		return
	}
	b.committed = true
	h.transmit(msg.BatchCommit{MH: h.id, Batch: batch, Count: uint32(len(b.items)), Inc: h.inc})
	h.scheduleBatchRetry(batch.Seq)
}

// batch returns the row of one of the host's batches in its window, or
// nil for a batch below the floor, not yet opened or not the host's.
func (h *MHNode) batch(id ids.BatchID) *mhBatch {
	if bw := h.batchWin; bw != nil && id.Origin == h.id && id.Seq > bw.resolved && id.Seq-bw.resolved <= uint32(len(bw.rows)) {
		return &bw.rows[id.Seq-bw.resolved-1]
	}
	return nil
}

// floor moves the batch window past its leading resolved rows and
// returns the host's lowest unresolved batch (E17): its proxy forgets
// every batch below. The rows left stay where they are.
func (h *MHNode) floor() uint32 {
	bw := h.batchWin
	for len(bw.rows) > 0 && h.batchResolved(&bw.rows[0]) {
		bw.rows[0] = mhBatch{}
		bw.rows, bw.resolved = bw.rows[1:], bw.resolved+1
	}
	return bw.resolved + 1
}

// batchResolved reports whether the batch needs no further client
// action: below the floor (nil), aborted, or committed with every member
// result delivered.
func (h *MHNode) batchResolved(b *mhBatch) bool {
	if b == nil || b.aborted {
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
func (h *MHNode) scheduleBatchRetry(seq uint32) {
	if h.w.cfg.RequestTimeout <= 0 {
		return
	}
	h.after(h.w.cfg.RequestTimeout, hostTimer{kind: timerBatchRetry, batch: seq})
}

// batchRetry is a committed batch's timeout expiring: re-offer what is
// still unresolved and wait again.
func (h *MHNode) batchRetry(seq uint32) {
	id := ids.BatchID{Origin: h.id, Seq: seq}
	b := h.batch(id)
	if h.batchResolved(b) || !h.joined {
		return
	}
	if h.active && !h.disconnected {
		h.w.Stats.RequestRetries.Inc()
		h.uplink(msg.BatchOpen{MH: h.id, Batch: id, Inc: h.inc, Floor: h.floor()})
		for _, it := range b.items {
			if !h.has(it.Req, reqSeen) {
				h.uplink(it)
			}
		}
		h.uplink(msg.BatchCommit{MH: h.id, Batch: id, Count: uint32(len(b.items)), Inc: h.inc})
	}
	h.scheduleBatchRetry(seq)
}

// onBatchAbort abandons every member of an aborted batch: the proxy's
// deadline expired before the batch became deliverable, and atomicity
// means no member may be delivered afterwards. An abort for a batch this
// incarnation does not hold in its window speaks of a dead one's, or of
// one already resolved, and is ignored. A delivered member at abort time
// would be a partial delivery — the proxy guarantees this cannot happen,
// so it is counted as a violation. The batch is resolved, and the window
// forgets it once it leads.
func (h *MHNode) onBatchAbort(a msg.BatchAbort) {
	b := h.batch(a.Batch)
	if b == nil || normInc(a.Inc) != normInc(h.inc) {
		return
	}
	b.aborted = true
	for _, it := range b.items {
		q := h.row(it.Req)
		if q.flags&reqSeen != 0 {
			h.w.violate(violBatchPartial, h.id, a.Proxy, it.Req)
			continue
		}
		if q.flags&reqAbandoned != 0 {
			continue
		}
		q.flags |= reqAbandoned
		h.settle(it.Req, q)
	}
	h.floor()
}

// uplink transmits over the wireless link to the current respMss.
func (h *MHNode) uplink(m msg.Message) {
	h.w.Wireless.SendUplink(h.id, h.respMss, m)
}
