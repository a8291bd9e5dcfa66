package rdpcore

import (
	"slices"
	"time"

	"repro/internal/aggstate"
	"repro/internal/dcache"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
)

// inboxItem is one message a station keeps past the call that showed
// it: queued for its inbox turn, buffered or deferred behind a hand-off,
// parked, or held for a migrating proxy. A leg is kept by value.
type inboxItem struct {
	from ids.NodeID
	env  msg.Envelope
}

// MSSNode is a mobile support station (§2): it serves one cell, holds
// the prefs of the MHs it is responsible for, hosts proxies, runs the
// Hand-off protocol, and translates between the wired and wireless
// substrates (the indirect model of Badrinath et al.).
type MSSNode struct {
	id ids.MSS
	w  *World

	// prefs holds one proxy reference per responsible MH (§3.1); its keys
	// are the hosts this station is responsible for (§2 localMhs). It
	// switches representation under Config.AggregatedState (aggtable.go,
	// E16).
	prefs *prefTable
	// hosts is everything else the station keeps about a mobile host, one
	// record each (hosttable.go); slab and spareTransients are its
	// allocation stock.
	hosts           map[ids.MH]*stationHost
	slab            []stationHost
	spareTransients []*hostTransient
	// spareProxies and spareImages are the spare stocks the station's
	// per-request records are made over: proxies del-proxy ended and the
	// journal images of emptied slots. retired holds the proxies the
	// current event ended; they are stocked once it is over (flushJournal).
	spareProxies []*Proxy
	spareImages  []*proxyImage
	retired      []*Proxy
	// hosted is what answers for each proxy identity of this station, by
	// sequence — exactly one addressee each (see deliver). nProxies and
	// nReserved count the private proxies and the inbound migration
	// reservations among them, for the migration policy's load check; put
	// and take keep them.
	hosted       map[uint32]addressee
	nProxies     int
	nReserved    int
	nextProxySeq uint32
	// topicProxies maps a (server, topic) pair to the sequence of the
	// cell's group proxy for it (E16), so joins dedup onto one proxy per
	// group. See groupproxy.go.
	topicProxies map[groupKey]uint32
	// aggLocBuf and aggAckBuf coalesce per-MH group-proxy signaling
	// (hand-off location updates, forwarded-result acks) into
	// delta-encoded group messages over Config.AggFlushDelay. Volatile:
	// a crash loses the buffers and recovery re-announces.
	aggLocBuf   map[ids.ProxyID]*aggstate.Set
	aggAckBuf   map[ids.ProxyID]*groupAckBuf
	aggLocArmed bool
	aggAckArmed bool

	// cache is the station's result cache (E17): proxies hosted here
	// consult it before issuing server requests and feed it every reply.
	// Volatile — rebuilt empty on crash (stale answers across a crash
	// would be worse than cold misses); nil when the cache is disabled.
	cache *dcache.Cache
	// boot counts the station's crashes: a timer armed through after is
	// void once the count has moved on from the one it was armed under.
	boot uint64
	// dirtyHosts and dirtySlots name the host records and proxy-sequence
	// slots written during the current event; flushJournal journals them on
	// the way out (stable.go). Empty between events, and always when
	// Config.Checkpoint is off.
	dirtyHosts []ids.MH
	dirtySlots []uint32
	// reclaims mirrors the durable reclaim-memo log (stable.go): every
	// proxy this station has reclaimed, with the respMss the memo was
	// addressed to, so recovery can re-send memos the crash swallowed.
	reclaims []reclaimRecord

	// inbox implements the priority rule of §3.1 ("higher priority is
	// given to forwarding Ack messages than to engaging in any new
	// Hand-off transactions") when per-message processing delay is
	// configured; with zero delay messages are processed on arrival.
	// Config.PriorityClasses generalizes the rule into three classes
	// (control/acks, admitted result traffic, new requests); see classOf.
	inbox         classInbox
	procScheduled bool
	// procFn caches the processNext method value so scheduleProcessing
	// does not materialize a fresh closure per processed message.
	procFn func()
	// selfHops carries the station's messages to itself (sendToStation).
	selfHops *sim.Calls[msg.Envelope]
}

// classInbox is the station's priority inbox: one FIFO queue per
// processing class, drained lowest class first. Within a class, arrival
// order is preserved. With a single class in use it degenerates to the
// plain FIFO inbox of earlier revisions.
type classInbox struct {
	q    [3][]inboxItem
	head [3]int
}

func (b *classInbox) push(class int, it inboxItem) {
	b.q[class] = append(b.q[class], it)
}

// len returns the queued (not yet popped) item count.
func (b *classInbox) len() int {
	n := 0
	for c := range b.q {
		n += len(b.q[c]) - b.head[c]
	}
	return n
}

// pop removes the head of the lowest-numbered non-empty class.
func (b *classInbox) pop() (inboxItem, bool) {
	for c := range b.q {
		if b.head[c] < len(b.q[c]) {
			it := b.q[c][b.head[c]]
			b.q[c][b.head[c]] = inboxItem{} // release references
			b.head[c]++
			if b.head[c] == len(b.q[c]) {
				b.q[c] = b.q[c][:0]
				b.head[c] = 0
			}
			return it, true
		}
	}
	return inboxItem{}, false
}

// reclaimRecord is one entry of the station's reclaim-memo log (E18).
type reclaimRecord struct {
	dest ids.MSS
	memo msg.ReclaimMemo
}

// newMSSNode constructs a station bound to a world.
func newMSSNode(id ids.MSS, w *World) *MSSNode {
	n := &MSSNode{id: id, w: w}
	n.crash() // a station starts as a crash leaves one: with empty tables
	n.procFn = n.processNext
	n.selfHops = sim.NewCalls(w.Kernel, func(e msg.Envelope) {
		w.turn = e
		n.process(id.Node(), w.turn.Message())
	})
	n.armLeaseBeat()
	return n
}

// ID returns the station identifier.
func (n *MSSNode) ID() ids.MSS { return n.id }

// Responsible reports whether the station currently holds
// responsibility for mh: whether it holds mh's pref.
func (n *MSSNode) Responsible(mh ids.MH) bool {
	_, ok := n.prefs.get(mh)
	return ok
}

// PrefOf returns a copy of the pref held for mh and whether one exists
// (test and invariant-checking hook).
func (n *MSSNode) PrefOf(mh ids.MH) (msg.Pref, bool) {
	return n.prefs.get(mh)
}

// HostedProxies returns the number of proxies currently hosted here.
func (n *MSSNode) HostedProxies() int { return n.nProxies }

// ProxyByID returns a hosted proxy (tests and invariant checks).
func (n *MSSNode) ProxyByID(id ids.ProxyID) *Proxy {
	if id.Host != n.id {
		return nil
	}
	return n.proxyAt(id.Seq)
}

// addressee is what answers for one proxy identity hosted at a station:
// a *Proxy (private or group), the *tombstone of a proxy that migrated
// away, or the *migReservation of one on its way in. It is
// handed a message that names it, borrowed as the station's door was.
type addressee interface {
	handle(from ids.NodeID, m msg.Message)
}

// put installs a as what answers for seq, an empty slot.
func (n *MSSNode) put(seq uint32, a addressee) {
	n.hosted[seq] = a
	n.count(seq, a, +1)
}

// take empties seq's slot.
func (n *MSSNode) take(seq uint32) {
	n.count(seq, n.hosted[seq], -1)
	delete(n.hosted, seq)
}

// count keeps nProxies and nReserved and marks the slot for the journal;
// a reservation is volatile, so filling or emptying its slot journals
// nothing.
func (n *MSSNode) count(seq uint32, a addressee, d int) {
	switch a := a.(type) {
	case *Proxy:
		if a.group == nil {
			n.nProxies += d
		}
	case *migReservation:
		n.nReserved += d
		return
	}
	n.markSlot(seq)
}

// newSeq allocates the next proxy sequence number, journaled at once: an
// identity must never be reused, even across a crash.
func (n *MSSNode) newSeq() uint32 {
	n.nextProxySeq++
	n.persistSeq()
	return n.nextProxySeq
}

// proxyAt returns the proxy answering for seq, or nil.
func (n *MSSNode) proxyAt(seq uint32) *Proxy {
	p, _ := n.hosted[seq].(*Proxy)
	return p
}

// deliver is the one way in for a message that names the proxy it is
// for: whatever answers for that identity here handles it, and what it
// made of the slot is journaled on the way out of the event. An identity
// of another station, or one nothing answers for any more, makes the
// message an orphan.
func (n *MSSNode) deliver(from ids.NodeID, id ids.ProxyID, m msg.Message) {
	if a := n.addressee(id); a != nil {
		a.handle(from, m)
		return
	}
	n.w.Stats.OrphanMessages.Inc()
}

// addressee returns what answers for id here, its slot marked for the
// journal, or nil.
func (n *MSSNode) addressee(id ids.ProxyID) addressee {
	if a := n.hosted[id.Seq]; a != nil && id.Host == n.id {
		n.markSlot(id.Seq)
		return a
	}
	return nil
}

// HandleMessage implements netsim.Handler for both substrates: the
// station's one door. New requests pass admission control at ingress: a
// refused request is NACKed without ever occupying an inbox slot or a
// processing turn — refusal must stay cheap for shedding to raise, not
// lower, goodput. An inbox turn keeps its message, a leg by value.
func (n *MSSNode) HandleMessage(from ids.NodeID, m msg.Message) {
	if m.Kind() == msg.KindRequest && n.refuseAdmission(m) {
		return
	}
	if n.procDelay() <= 0 {
		n.process(from, m)
		return
	}
	n.inbox.push(n.classOf(m), inboxItem{from: from, env: msg.EnvelopeOf(m)})
	n.w.Stats.InboxPeak.Observe(int64(n.inbox.len()))
	n.scheduleProcessing()
}

// procDelay is the station's current per-message processing time: the
// configured base plus any injected slowdown (Config.StationDelayHook).
func (n *MSSNode) procDelay() time.Duration {
	d := n.w.cfg.ProcDelay
	if n.w.cfg.StationDelayHook != nil {
		d += n.w.cfg.StationDelayHook(n.id)
	}
	return d
}

// classOf assigns a message its inbox priority class. With
// Config.PriorityClasses the paper's Ack-priority rule is generalized:
// class 0 is acks, hand-off, proxy-migration and other control traffic
// (completing work and releasing state — migration control must never
// queue behind the very result backlog it exists to relieve), class 1
// is result traffic and forwarded — already admitted — requests (work
// in progress), class 2 is new requests (work not yet begun). Under overload the station therefore
// finishes what it started before accepting more. Without
// PriorityClasses, the classic AckPriority rule (acks ahead of
// everything) or plain FIFO applies.
func (n *MSSNode) classOf(m msg.Message) int {
	if n.w.cfg.PriorityClasses {
		switch m.Kind() {
		case msg.KindRequest:
			return 2
		case msg.KindServerResult, msg.KindResultForward, msg.KindRequestForward:
			return 1
		case msg.KindBatchOpen, msg.KindBatchItem, msg.KindBatchCommit:
			// On the wireless uplink leg (Proxy still unset) batch traffic
			// is new work like a plain request; once addressed to a proxy
			// it is admitted work in progress. BatchAbort is control
			// traffic and stays in class 0.
			if m.(msg.ProxyAddressed).ProxyID() == ids.NoProxy {
				return 2
			}
			return 1
		default:
			return 0
		}
	}
	if n.w.cfg.AckPriority && m.Kind() != msg.KindAckMH {
		return 1
	}
	return 0
}

// admissionEnabled reports whether the admission-control bound is
// configured.
func (n *MSSNode) admissionEnabled() bool {
	return n.w.cfg.AdmissionHighWater > 0
}

// refuseAdmission decides, at ingress, whether a request must be refused
// with a busy-NACK. Only requests this station is responsible for are
// candidates: requests buffered during a hand-off and requests merely
// passing through along the forwarding chain are never refused here (the
// chain's end runs its own admission check on arrival). A timeout retry
// of an admitted request is refused like a new one: its proxy holds the
// request, and a host told of the admission ignores the Busy NACK. The
// refusal ground is a full inbox (past the high-watermark).
func (n *MSSNode) refuseAdmission(m msg.Message) bool {
	if !n.admissionEnabled() || n.w.down[n.id] {
		return false
	}
	req := n.w.legOf(m).Req
	mh := req.Origin
	h := n.peek(mh)
	if h.arrival() != nil || !n.Responsible(mh) {
		return false
	}
	if n.inbox.len() < n.w.cfg.AdmissionHighWater {
		return false
	}
	n.w.Stats.BusyRefusals.Inc()
	n.w.Wireless.SendDownlink(n.id, mh, msg.Busy{Req: req})
	return true
}

// sendAdmit confirms admission to the MH once its request is routed
// (only when admission control is on; the message is what stops the
// MH's busy-retry and deadline machinery).
func (n *MSSNode) sendAdmit(mh ids.MH, req ids.RequestID) {
	if !n.admissionEnabled() {
		return
	}
	n.w.Wireless.SendDownlink(n.id, mh, msg.Admit{Req: req})
}

func (n *MSSNode) scheduleProcessing() {
	if n.procScheduled || n.inbox.len() == 0 {
		return
	}
	n.procScheduled = true
	n.w.Kernel.Defer(n.procDelay(), n.procFn)
}

// stationTimer is one timer a station arms: what it is for, what it is
// about, and the boot it was armed in. The world defers it through one
// sim.Calls, as it does a hostTimer, so a station timer is a recycled
// record rather than a closure.
type stationTimer struct {
	n     *MSSNode
	boot  uint64
	kind  stationTimerKind
	mh    ids.MH     // timerDereg; timerBatchDeadline: the batch's origin
	old   ids.MSS    // timerDereg: the station the dereg went to
	epoch uint64     // timerTombstone, timerLease: the arming; timerBatchDeadline: the batch's sequence and incarnation
	p     *Proxy     // timerLease, timerBatchDeadline
	t     *tombstone // timerTombstone
}

// stationTimerKind says what a stationTimer does when it fires.
type stationTimerKind uint8

const (
	timerDereg         stationTimerKind = iota // a pending hand-off's re-issue (Config.HandoffTimeout)
	timerBeat                                  // the lease heartbeat round (Config.LeaseTTL/3)
	timerTombstone                             // a tombstone's quiet period (Migration.Linger)
	timerGroupLocs                             // the group location flush (Config.AggFlushDelay)
	timerGroupAcks                             // the group ack flush (Config.AggFlushDelay)
	timerRecovery                              // the restart's resend (Config.RecoveryGrace)
	timerBatchDeadline                         // a proxy's batch abort (Config.BatchDeadline)
	timerLease                                 // a proxy's lease expiry (Config.LeaseTTL)
)

// after is the one way a station's own timer gets back in: t fires after
// d unless the station crashed in between — whatever it was about died
// with the station's memory, and a restart arms its own — and what it
// wrote is journaled on the way out.
func (n *MSSNode) after(d time.Duration, t stationTimer) {
	t.n, t.boot = n, n.boot
	n.w.stationTimers.Defer(d, t)
}

// fire runs the timer, unless its station crashed since it was armed.
func (t stationTimer) fire() {
	n := t.n
	if n.boot != t.boot {
		return
	}
	switch t.kind {
	case timerDereg:
		n.reissueDereg(t.old, t.mh)
	case timerBeat:
		n.leaseBeat()
		n.armLeaseBeat()
	case timerTombstone:
		n.tombstoneQuiet(t.t, int(t.epoch))
	case timerGroupLocs:
		n.flushGroupLocs()
	case timerGroupAcks:
		n.flushGroupAcks()
	case timerRecovery:
		n.recoveryResend()
	case timerBatchDeadline:
		t.p.batchDeadline(t.mh, t.epoch)
	case timerLease:
		t.p.leaseExpired(t.epoch)
	}
	n.flushJournal()
}

// processNext pops one inbox item — lowest priority class first — and
// processes it.
func (n *MSSNode) processNext() {
	n.procScheduled = false
	it, ok := n.inbox.pop()
	if !ok {
		return
	}
	n.w.turn = it.env
	n.process(it.from, n.w.turn.Message())
	n.scheduleProcessing()
}

// process is the one way a message gets in — on arrival, off the inbox,
// or from the station itself: it is dispatched, and the records and slots
// its handlers wrote are journaled on the way out.
func (n *MSSNode) process(from ids.NodeID, m msg.Message) {
	// A crashed host loses whatever was addressed to it: the network
	// substrates gate external traffic, and this guard covers self-sends
	// and inbox turns queued before the crash.
	if n.w.down[n.id] {
		return
	}
	n.dispatch(from, m)
	n.flushJournal()
}

// dispatch hands one message to its handler, by kind. A handler that
// keeps the message keeps its envelope (msg.EnvelopeOf); the request
// path's and the hand-off's kinds are read through their leg. Handlers
// that replay kept messages call it directly: they are still inside the
// event.
func (n *MSSNode) dispatch(from ids.NodeID, m msg.Message) {
	switch m.Kind() {
	case msg.KindJoin:
		n.handleJoin(m.(msg.Join))
	case msg.KindLeave:
		n.handleLeave(m.(msg.Leave))
	case msg.KindGreet:
		n.handleGreet(m)
	case msg.KindRequest:
		n.handleRequest(from, m)
	case msg.KindAckMH:
		n.handleAckMH(from, m)
	case msg.KindDereg:
		n.handleDereg(from, m)
	case msg.KindDeregAck:
		n.handleDeregAck(n.w.legOf(m).DeregAck())
	case msg.KindResultForward:
		n.handleResultForward(n.w.legOf(m).ResultForward())
	case msg.KindRequestForward, msg.KindServerResult, msg.KindAckForward, msg.KindUpdateCurrentLoc:
		n.deliver(from, n.w.legOf(m).Proxy, m)
	case msg.KindDelPrefOnly:
		n.handleDelPrefOnly(m.(msg.DelPrefOnly))
	case msg.KindMigOffer:
		n.handleMigOffer(m.(msg.MigOffer))
	case msg.KindMigCommit:
		n.handleMigCommit(m.(msg.MigCommit))
	case msg.KindMigState:
		n.handleMigState(m.(msg.MigState))
	case msg.KindPrefRedirect:
		n.handlePrefRedirect(from, m.(msg.PrefRedirect))
	case msg.KindMigGC:
		n.handleMigGC(m.(msg.MigGC))
	case msg.KindBatchAbort:
		n.handleBatchAbort(from, m)
	case msg.KindRegister:
		n.handleRegister(m.(msg.Register))
	case msg.KindReclaimMemo:
		n.handleReclaimMemo(from, m.(msg.ReclaimMemo))
	default:
		// Every other kind that names the proxy it is for goes through the
		// one door; batch traffic on its wireless leg names none yet.
		v, ok := m.(msg.ProxyAddressed)
		switch {
		case !ok:
			n.w.Stats.OrphanMessages.Inc()
		case v.ProxyID() != ids.NoProxy:
			n.deliver(from, v.ProxyID(), m)
		default:
			n.handleBatchUplink(from, v)
		}
	}
}

// --- Mobile-host incarnations (E18) -----------------------------------

// incOf returns the newest incarnation registered for mh (first if none
// is known).
func (n *MSSNode) incOf(mh ids.MH) ids.Incarnation { return normInc(n.peek(mh).inc) }

// noteInc records that mh is running incarnation inc. Learning a newer
// incarnation than the registered one means the host crashed and
// rebooted since we last heard from it: its request and registration
// sequences start over, and so do routed and seq; every held result
// owned by the dead incarnations is scrubbed — the reborn host has no
// memory of them and will never acknowledge anything on their behalf.
func (n *MSSNode) noteInc(mh ids.MH, inc ids.Incarnation) {
	if inc == 0 || !incLess(n.peek(mh).inc, inc) {
		return
	}
	h := n.rec(mh)
	h.inc, h.routed, h.seq = inc, 0, 0
	if x := h.x; x != nil {
		x.held = slices.DeleteFunc(x.held, func(r msg.ResultDeliver) bool { return n.staleInc(r.Inc, inc) })
	}
}

// staleInc reports (and counts as dropped) state owned by an incarnation
// older than cur.
func (n *MSSNode) staleInc(owner, cur ids.Incarnation) bool {
	stale := incLess(owner, cur)
	if stale {
		n.w.Stats.StaleIncarnationDrops.Inc()
	}
	return stale
}

// handleRegister processes the re-registration a rebooted host sends
// under its fresh incarnation: it runs through the greet path as the new
// incarnation's first registration (sequence 0) — which records the
// incarnation, scrubbing what the dead ones owned, and handles every
// placement case (responsible, forwarded-away, wholly unknown) — and
// then vouches for the host immediately so its proxy learns the new
// incarnation without waiting for the next heartbeat round.
func (n *MSSNode) handleRegister(m msg.Register) {
	n.handleGreet(msg.Greet{MH: m.MH, OldMSS: n.id, Inc: m.Inc})
	if pref, ok := n.prefs.get(m.MH); ok {
		n.beatOne(m.MH, pref)
	}
}

// handleReclaimMemo is the respMss side of proxy reclamation: the named
// proxy no longer exists, so a pref still pointing at it is emptied (the
// next request builds a fresh proxy). The memo chases a moved
// registration along the forwarding chain like any per-MH traffic.
func (n *MSSNode) handleReclaimMemo(from ids.NodeID, m msg.ReclaimMemo) {
	h := n.peek(m.MH)
	if arr := h.arrival(); arr != nil {
		arr.deferred = append(arr.deferred, inboxItem{from: from, env: msg.EnvelopeOf(m)})
		return
	}
	pref, ok := n.prefs.get(m.MH)
	if !ok {
		if h.departed() {
			n.sendWired(h.forwardTo.Node(), m)
			return
		}
		n.w.Stats.OrphanMessages.Inc()
		return
	}
	if pref.Proxy == m.Proxy {
		n.setPref(m.MH, msg.Pref{})
	}
}

// armLeaseBeat starts the station's heartbeat loop (E18): every
// LeaseTTL/3 the station vouches for each registered host whose pref
// names a proxy. The loop dies with a crash (restoreFromStore re-arms
// it) and is never armed when leases are disabled.
func (n *MSSNode) armLeaseBeat() {
	ttl := n.w.cfg.LeaseTTL
	if ttl <= 0 {
		return
	}
	n.after(ttl/3, stationTimer{kind: timerBeat})
}

// leaseBeat sends one heartbeat round, in sorted MH order so the wire
// traffic is deterministic.
func (n *MSSNode) leaseBeat() {
	n.prefs.forEachSorted(n.beatOne)
}

// beatOne vouches for one registered host, under its pref. A host the
// radio layer knows to be crashed gets no vouching — the station's
// periodic page of the host goes unanswered — so its proxy's lease runs
// out and the orphan is reclaimed. A merely disconnected or inactive
// host keeps its lease: the station is still its registrar and its state
// must survive the coverage gap (E17 semantics).
func (n *MSSNode) beatOne(mh ids.MH, pref msg.Pref) {
	if n.w.cfg.LeaseTTL <= 0 || !pref.HasProxy() || isSharedProxy(pref.Proxy) {
		// Shared group proxies take no per-MH leases (E16): they are
		// durable per-(cell, server, topic) infrastructure, not per-host
		// state an amnesiac host could orphan.
		return
	}
	if n.w.IsCrashed(mh) {
		return
	}
	n.sendToStation(pref.Proxy.Host,
		msg.LeaseHeartbeat{Proxy: pref.Proxy, MH: mh, Inc: n.incOf(mh)})
}

// reclaimProxy removes an orphaned proxy (lease expired, or everything
// it held belonged to dead incarnations), journals the reclaim memo
// durably, and tells the MH's last known respMss so the dangling pref
// is dropped.
func (n *MSSNode) reclaimProxy(p *Proxy) {
	if n.hosted[p.id.Seq] != p {
		return
	}
	n.retire(p)
	n.w.Stats.ProxiesReclaimed.Inc()
	rr := reclaimRecord{
		dest: p.currentLoc,
		memo: msg.ReclaimMemo{Proxy: p.id, MH: p.mh},
	}
	n.reclaims = append(n.reclaims, rr)
	n.persistReclaim(rr.dest, rr.memo)
	n.sendToStation(rr.dest, rr.memo)
}

// setPref registers (or replaces) mh's pref.
func (n *MSSNode) setPref(mh ids.MH, pref msg.Pref) {
	n.prefs.set(mh, pref)
	n.markHost(mh)
}

// adopt makes the station responsible for mh, under pref — a join, or the
// deregack that completes a hand-off: the host's Acks count (again) and
// nothing is passed along.
func (n *MSSNode) adopt(mh ids.MH, pref msg.Pref) {
	if h := n.peek(mh); h.departed() {
		h.forwardTo = ids.NoMSS
	}
	n.setPref(mh, pref)
}

// forget erases everything the station keeps about a host it is no
// longer responsible for (departure or hand-off).
func (n *MSSNode) forget(mh ids.MH) {
	n.markHost(mh)
	n.prefs.delete(mh)
	if h := n.hosts[mh]; h != nil {
		// What outlives responsibility is where the host went, a hand-off
		// still in flight toward this station, and recent delivery
		// attempts.
		h.routed, h.inc, h.seq = 0, 0, 0
		if x := h.x; x != nil {
			x.held, x.heldAcks, x.deferredUpdate = nil, nil, false
			n.settle(h)
		}
	}
}

// handleJoin registers a new MH in the cell (§2).
func (n *MSSNode) handleJoin(m msg.Join) {
	pref, _ := n.prefs.get(m.MH) // the empty pref, unless a pref is already held
	n.adopt(m.MH, pref)
	n.sendRegConfirm(m.MH)
	// Serve deregs that were parked while we knew nothing about the MH:
	// now registered, the normal responsible path answers them.
	if x := n.peek(m.MH).x; x != nil && len(x.parked) > 0 {
		parked := x.parked
		x.parked = nil
		for i := range parked {
			n.dispatch(parked[i].from, parked[i].env.Message())
		}
	}
}

// handleLeave removes an MH from the system. Assumption 6 guarantees it
// has acknowledged everything; a live proxy at departure is a protocol
// violation.
func (n *MSSNode) handleLeave(m msg.Leave) {
	// A shared group-proxy pref is exempt: it is durable routing
	// infrastructure, not per-request state — membership is pruned
	// lazily at the proxy (E16), so holding one at departure violates
	// nothing.
	if p, ok := n.prefs.get(m.MH); ok && p.HasProxy() && !isSharedProxy(p.Proxy) {
		n.w.violate(violLeaveWithProxy, m.MH, p.Proxy, ids.RequestID{})
	}
	n.forget(m.MH)
}

// handleGreet implements §3.2: a greet from a new cell starts the
// Hand-off; a greet naming this station is a reactivation in place and
// triggers only an update_currentLoc (plus delivery of any held
// results). The greet's registration (Inc, Seq) against the station's
// (stationHost.order) decides every race a reordered radio makes: a
// station ignores a greet older than what it holds or has handed on, and
// takes one no older than the registration it holds in place — a
// beacon's repeat, or the host back before a hand-off away reached it.
func (n *MSSNode) handleGreet(in msg.Message) {
	m := n.w.legOf(in).Greet()
	h := n.peek(m.MH)
	order := h.order(m.Inc, m.Seq)
	if arr := h.arrival(); arr != nil {
		if order > 0 {
			// The host greeted us again, for a newer registration, while
			// ours is still pending: replay the greet once ours lands so the
			// hand-off chain stays chronological. A repeat asks for nothing
			// the pending hand-off will not do.
			arr.deferred = append(arr.deferred, inboxItem{from: m.MH.Node(), env: msg.EnvelopeOf(in)})
		}
		return
	}
	if order < 0 || order == 0 && h.departed() {
		// The registration went on from here (or is held here) under a
		// later greet: this one was overtaken on the radio.
		return
	}
	n.noteInc(m.MH, m.Inc)
	if h.departed() || m.OldMSS != n.id && !n.Responsible(m.MH) {
		// Migration into this cell: start the Hand-off with the old
		// station. A host that names this station while the registration
		// has left it (a rebooted host's greet, or one naming its last
		// confirmed station) sends the dereg here first, and the departed
		// record passes it along the chain. Deregs that overtook this
		// greet join the arrival's deferred queue.
		e := n.entry(m.MH)
		x := n.transient(e)
		x.arrive(n.w.Kernel.Now(), m.Seq, x.parked)
		x.parked = nil
		n.sendDereg(m.OldMSS, m.MH, e)
		return
	}
	// Reactivation within the same cell: "no Hand-off is initiated".
	n.w.Stats.Reactivations.Inc()
	if n.Responsible(m.MH) {
		n.sendRegConfirm(m.MH)
	} else {
		// Genuinely unknown MH with no trace of a registration: there is
		// no state to reactivate; register it like a join.
		n.handleJoin(msg.Join{MH: m.MH})
	}
	if n.peek(m.MH).seq != m.Seq { // a repeat writes (and journals) nothing
		n.rec(m.MH).seq = m.Seq
	}
	n.reactivateInPlace(m.MH)
}

// reactivateInPlace runs the reactivation tail for a responsible MH:
// prompt the proxy with an update_currentLoc (or defer it behind held
// deliveries) and flush held results.
func (n *MSSNode) reactivateInPlace(mh ids.MH) {
	x := n.peek(mh).x
	if x != nil {
		x.deferredUpdate = false // recomputed below
	}
	if pref, ok := n.prefs.get(mh); ok && pref.HasProxy() {
		if n.w.cfg.GreetRefresh > 0 {
			// With refresh beacons on, a greet can land between a
			// delivery attempt to the (reachable) MH and the return of
			// its Ack; prompting the proxy then re-sends a result that is
			// merely in flight. Skip the update while the last attempt's
			// round trip can still complete — if that delivery was in
			// fact lost, the next beacon falls outside the window and
			// recovers it.
			if x != nil && x.attempted && n.w.Kernel.Now()-x.lastAttempt < n.deliveryWindow() {
				n.deliverHeld(mh)
				return
			}
		}
		if x != nil && len(x.held) > 0 {
			// Held results are about to be delivered; defer the
			// update_currentLoc until their Acks pass through so the
			// proxy is not prompted into a redundant retransmission.
			x.deferredUpdate = true
		} else {
			n.announceLoc(pref.Proxy, mh)
		}
	}
	n.deliverHeld(mh)
}

// sendDereg starts (or continues) h's pending hand-off toward the station
// believed to hold the pref, for the arrival's registration, and, when
// peer-outage detection is configured, arms a timer that re-issues the
// Dereg while the hand-off stays pending — the old station may have
// crashed before serving it.
func (n *MSSNode) sendDereg(old ids.MSS, mh ids.MH, h *stationHost) {
	n.sendToStation(old, n.w.view(msg.Dereg{MH: mh, NewMSS: n.id, Inc: normInc(h.inc), Seq: h.arrival().seq}.Leg()))
	if n.w.cfg.HandoffTimeout <= 0 {
		return
	}
	n.after(n.w.cfg.HandoffTimeout, stationTimer{kind: timerDereg, mh: mh, old: old})
}

// reissueDereg re-issues the Dereg of a hand-off that is still pending
// when its timeout fires.
func (n *MSSNode) reissueDereg(old ids.MSS, mh ids.MH) {
	if h := n.peek(mh); h.arrival() != nil {
		n.w.Stats.HandoffReissues.Inc()
		n.sendDereg(old, mh, h)
	}
}

// sendRegConfirm confirms a registration to the MH over the downlink
// (see Config.RegConfirm).
func (n *MSSNode) sendRegConfirm(mh ids.MH) {
	if !n.w.cfg.RegConfirm {
		return
	}
	n.w.Wireless.SendDownlink(n.id, mh, msg.RegConfirm{MH: mh})
}

// handleRequest implements §3.1/§3.3 request routing: the request goes to
// the MH's proxy (proxyFor) — registered with it in this same event when
// it is hosted here, forwarded to its host otherwise.
func (n *MSSNode) handleRequest(from ids.NodeID, in msg.Message) {
	m := n.w.legOf(in)
	mh := m.Req.Origin
	if !n.routeUplink(from, mh, in) {
		return
	}
	// Incarnation gates (E18): a request from a dead incarnation is a
	// ghost — its issuer lost all memory of it, so admitting it would
	// promise a delivery nobody will ever acknowledge. A request from a
	// *newer* incarnation than the registered one means the host's
	// re-registration was lost; the request itself is the proof of life.
	if n.staleInc(m.Inc, n.incOf(mh)) {
		return
	}
	n.noteInc(mh, m.Inc)
	id, local := n.proxyFor(mh, m.Req.Seq, m.Server, m.Payload)
	switch a := local.(type) {
	case *Proxy:
		a.addRequest(m.Req, m.Server, m.Payload, m.Inc, n.id)
	default:
		if id.Host == n.id {
			n.w.violate(violPrefDeadProxy, mh, id, m.Req)
			return
		}
		// A remote group proxy takes the same forward: its host joins the
		// MH into the matching group entry.
		n.sendWired(id.Host.Node(),
			n.w.view(msg.RequestForward{Proxy: id, Req: m.Req, Server: m.Server, Payload: m.Payload, Inc: m.Inc}.Leg()))
	}
	n.sendAdmit(mh, m.Req)
}

// proxyFor resolves the proxy a responsible host's uplink traffic goes
// to — pref → identity (§3.1) — making the proxy when the pref is empty:
// the cell's shared group proxy for a groupable request (E16; its
// identity is then the MH's only proxy reference, so every later request
// routes through the same group host), a private one otherwise. New
// uplink work keeps the proxy alive: RKpR is cleared (§3.3), and routed
// rises to seq, the traffic's request sequence (zero for a batch's open
// and commit) — from nothing, for a proxy made here. Batch traffic
// passes NoServer and is never grouped. With the identity comes what
// answers for it at this station, marked for the journal since the
// caller is about to hand it the traffic — nil for another station's.
func (n *MSSNode) proxyFor(mh ids.MH, seq uint32, server ids.Server, payload []byte) (ids.ProxyID, addressee) {
	pref, _ := n.prefs.get(mh) // registered MHs always have an entry
	pref.RKpR = 0
	h := n.rec(mh)
	if !pref.HasProxy() {
		h.routed = 0
	}
	h.routed = max(h.routed, seq)
	var local addressee
	if pref.HasProxy() {
		if pref.Proxy.Host == n.id {
			local = n.hosted[pref.Proxy.Seq]
		}
	} else if p := n.sharedGroupFor(server, payload); p != nil {
		pref.Proxy, local = p.id, p
	} else {
		p := n.createProxy(mh)
		pref.Proxy, local = p.id, p
	}
	n.setPref(mh, pref)
	if local != nil {
		n.markSlot(pref.Proxy.Seq)
	}
	return pref.Proxy, local
}

// createProxy builds a proxy for mh at this station, its current respMss
// (§3.1).
func (n *MSSNode) createProxy(mh ids.MH) *Proxy {
	p := newProxy(ids.ProxyID{Host: n.id, Seq: n.newSeq()}, mh, n)
	n.put(p.id.Seq, p)
	n.w.Stats.ProxiesCreated.Inc()
	n.w.Stats.ProxyCreations[n.id]++
	p.armLease()
	return p
}

// retire takes a proxy that was acknowledged away, reclaimed or migrated
// off the table and closes its hosting-time account.
func (n *MSSNode) retire(p *Proxy) {
	n.take(p.id.Seq)
	n.w.Stats.ProxySeconds[n.id] += time.Duration(n.w.Kernel.Now() - p.createdAt)
}

// recycle marks a proxy del-proxy ended (§3.3) for the spare stock at the
// end of the event — unless it ever armed a timer (a lease, or a batch
// deadline, which only a proxy holding floors can have): a stale timer
// must find the record it was armed for, never a successor. A proxy that migrates or is reclaimed is never recycled.
func (n *MSSNode) recycle(p *Proxy) {
	if p.leaseEpoch == 0 && len(p.floors) == 0 {
		n.retired = append(n.retired, p)
	}
}

// stockRetired puts the proxies the event retired on the spare stock,
// their request arrays cleared, or dropped past spareReqs entries.
func (n *MSSNode) stockRetired() {
	for _, p := range n.retired {
		if cap(p.reqs) > spareReqs {
			p.reqs = p.first[:0]
		}
		clear(p.reqs[:cap(p.reqs)])
		p.reqs = p.reqs[:0]
		push(&n.spareProxies, p)
	}
	clear(n.retired)
	n.retired = n.retired[:0]
}

// spareStock bounds each of a station's spare stocks, and spareReqs the
// array a spare record keeps: what a burst leaves past either is the
// collector's.
const (
	spareStock = 16
	spareReqs  = 4
)

// pop takes the last record off a spare stock, clearing its slot, or
// returns the zero value.
func pop[T any](stock *[]T) T {
	var t T
	if s := *stock; len(s) > 0 {
		t, s[len(s)-1] = s[len(s)-1], t
		*stock = s[:len(s)-1]
	}
	return t
}

// push puts a record on a spare stock unless it is full.
func push[T any](stock *[]T, t T) {
	if len(*stock) < spareStock {
		*stock = append(*stock, t)
	}
}

// handleAckMH relays an MH's Ack to its proxy (§3.1), confirming proxy
// removal when RKpR is armed for this very request and no new request
// intervened (§3.3).
func (n *MSSNode) handleAckMH(from ids.NodeID, in msg.Message) {
	m := n.w.legOf(in).AckMH()
	// A hand-off back to this station may be in flight: the MH greeted
	// us again, so we are its next respMss and must buffer (not ignore)
	// its traffic until the deregack arrives — the ignore rule below
	// applies only to our *old* respMss role.
	h := n.peek(m.MH)
	if arr := h.arrival(); arr != nil {
		arr.buffered = append(arr.buffered, inboxItem{from: from, env: msg.EnvelopeOf(in)})
		return
	}
	if h.departed() {
		n.w.Stats.IgnoredAcks.Inc()
		return
	}
	if n.w.cfg.GreetRefresh > 0 {
		// The Ack is proof of a completed delivery. Refresh (don't clear)
		// the attempt record: a redundant forward of the same result may
		// still be in the backbone — dropped once and resurrected by the
		// ARQ well after the Ack — and must be suppressed when it lands.
		h = n.entry(m.MH)
		n.transient(h).noteAttempt(m.Req, n.w.Kernel.Now(), n.deliveryWindow())
	}
	pref, ok := n.prefs.get(m.MH)
	if !ok {
		n.w.Stats.OrphanMessages.Inc()
		return
	}
	if !pref.HasProxy() {
		// Ack for an already-completed request (duplicate delivery ack
		// after the proxy was confirmed dead); nothing to relay.
		n.w.Stats.OrphanMessages.Inc()
		n.noteHeldAck(m.MH, m.Req)
		return
	}
	if isSharedProxy(pref.Proxy) {
		// Shared prefs are never deleted (E16): the group proxy is durable
		// cell infrastructure, so §3.3 removal does not apply. The ack is
		// coalesced with other members' acks into one group_ack_forward.
		n.bufferGroupAck(pref.Proxy, m.MH, m.Req.Seq)
		n.noteHeldAck(m.MH, m.Req)
		return
	}
	// §3.3 removal condition: RKpR armed AND every request of the MH has
	// been answered. RKpR names the request whose del-pref armed it, after
	// every request routed to the proxy had arrived there (armRKpR); only
	// that request's own Ack confirms — an older Ack, duplicated or late,
	// speaks for a moment before it — and only with the MH's statement on
	// it that it awaits nothing else (which covers requests issued before
	// the Ack and still on their way).
	delProxy := pref.RKpR != 0 && pref.RKpR == m.Req.Seq && !m.HaveOutstanding
	proxy := pref.Proxy
	if delProxy {
		// §3.3: erase the proxy address and confirm removal.
		n.setPref(m.MH, msg.Pref{})
	}
	n.w.Stats.AckForwards.Inc()
	n.sendToStation(proxy.Host,
		n.w.view(msg.AckForward{Proxy: proxy, MH: m.MH, Req: m.Req, DelProxy: delProxy}.Leg()))
	// Release a deferred reactivation update only after the Ack relay
	// above, so the proxy sees the Ack before any update_currentLoc.
	n.noteHeldAck(m.MH, m.Req)
}

// handleDereg implements the old-station side of the Hand-off (§3.2):
// return the pref, drop responsibility, and ignore the MH's later acks —
// for a newer registration than the one held. A dereg for one no newer
// was sent for a greet the host made before it greeted the registration
// held here (a greet overtaken on the radio and a dereg that followed a
// stale forwardTo, or this station's own dereg come back along the
// chain): it is refused with a stale deregack naming this station.
//
// Fast migration chains require two further cases. A station the MH has
// already left forwards the dereg along the hand-off chain to wherever it
// sent the pref. Only a station that is itself *about to receive* the
// pref defers the dereg until its registration completes. It was named
// as the old station, so the host greeted it first: a dereg waits only
// on an older registration's hand-off, and no two stations ever wait on
// each other.
func (n *MSSNode) handleDereg(from ids.NodeID, in msg.Message) {
	m := n.w.legOf(in).Dereg()
	h := n.peek(m.MH)
	pref, responsible := n.prefs.get(m.MH)
	arr := h.arrival()
	switch {
	case responsible && h.order(m.Inc, m.Seq) > 0:
		// The deregack carries routed beside the pref, and the registered
		// incarnation (E18) it counts for: the new respMss must not vouch
		// for (or gate against) an older one.
		h = n.rec(m.MH)
		routed, inc := h.routed, h.inc
		n.forget(m.MH)
		h.forwardTo, h.seq = m.NewMSS, m.Seq
		n.sendWired(m.NewMSS.Node(), n.w.view(msg.DeregAck{MH: m.MH, Pref: pref, Routed: routed, Inc: inc}.Leg()))
	case h.departed():
		n.sendWired(h.forwardTo.Node(), in)
	case responsible:
		n.sendToStation(m.NewMSS, n.w.view(msg.DeregAck{MH: m.MH, Stale: true, Holder: n.id, Seq: m.Seq}.Leg()))
	case arr != nil:
		arr.deferred = append(arr.deferred, inboxItem{from: from, env: msg.EnvelopeOf(in)})
	default:
		// Unknown MH: our own greet for it must still be in flight (an MH
		// names us as old respMss only after greeting us); park the dereg
		// until that greet or a join arrives.
		x := n.transient(n.entry(m.MH))
		x.parked = append(x.parked, inboxItem{from: from, env: msg.EnvelopeOf(in)})
	}
}

// handleDeregAck completes the Hand-off on the new station (§3.2):
// responsibility is officially transferred, the pref is installed, the
// proxy learns the new location, and traffic buffered during the
// hand-off is processed. A stale deregack ends the hand-off it refuses:
// the host registered at (or beyond) the holder after greeting this
// station, which becomes departed toward the holder and passes what the
// arrival kept on along the chain. One for a hand-off no longer pending —
// a re-issued dereg's second answer, or this station's own dereg come
// back after its hand-off completed — does nothing.
func (n *MSSNode) handleDeregAck(m msg.DeregAck) {
	h := n.peek(m.MH)
	// The replay below works on a copy of the finished record: what it
	// dispatches may start the host's next arrival in the same place,
	// with queues of its own.
	var arr arrival
	arriving := h.arrival() != nil
	if arriving {
		arr = h.x.arr
	}
	if m.Stale && (!arriving || arr.seq != m.Seq) {
		return
	}
	if arriving {
		h.x.arr, h.x.arriving = arrival{}, false
	}
	if m.Stale {
		h = n.rec(m.MH)
		h.forwardTo, h.seq = m.Holder, arr.seq
	} else {
		n.noteInc(m.MH, m.Inc)
		n.adopt(m.MH, m.Pref)
		h = n.rec(m.MH)
		// routed counts for the deregack's incarnation; one this station
		// already knows to be dead counts nothing.
		if !incLess(m.Inc, h.inc) {
			h.routed = m.Routed
		}
		n.sendRegConfirm(m.MH)
		n.w.Stats.Handoffs.Inc()
		if arriving {
			h.seq = arr.seq
			n.w.Stats.HandoffLatency.Observe(time.Duration(n.w.Kernel.Now() - arr.greetAt))
		}
		if m.Pref.HasProxy() {
			n.announceLoc(m.Pref.Proxy, m.MH)
		}
	}
	if arriving {
		for i := range arr.buffered {
			n.dispatch(arr.buffered[i].from, arr.buffered[i].env.Message())
		}
		// Replay deferred greets/deregs in arrival order. Processing one
		// may start the next hand-off of the chain (re-entering the
		// arriving state); the rest of the queue then meets that new
		// arrival, or the departed record a refusal left, as any message
		// would.
		for i := range arr.deferred {
			n.dispatch(arr.deferred[i].from, arr.deferred[i].env.Message())
		}
		n.settle(h)
	}
}

// sendUpdateCurrLoc notifies the proxy of the MH's new respMss (§3.1).
func (n *MSSNode) sendUpdateCurrLoc(proxy ids.ProxyID, mh ids.MH) {
	n.w.Stats.UpdateCurrLocs.Inc()
	n.sendToStation(proxy.Host, n.w.view(msg.UpdateCurrentLoc{Proxy: proxy, MH: mh, NewLoc: n.id}.Leg()))
}

// handleResultForward is the respMss side of result delivery (§3.1,
// §3.3): arm RKpR if del-pref rides along (armRKpR), then
// attempt exactly one wireless forward — or hold the result for an
// inactive MH when the §5 footnote 3 optimization is on. The station
// keeps no copy: "the MSS can discard the result message after a single
// attempt to forward it".
func (n *MSSNode) handleResultForward(m msg.ResultForward) {
	// Incarnation gate (E18): a result for a dead incarnation of the MH
	// must never reach the radio — the reborn host has no memory of the
	// request and would either drop it (wasted delivery) or, worse, have
	// reused the identifier. Acking it back instead lets the proxy
	// retire the orphaned entry.
	if n.staleInc(m.Inc, n.incOf(m.MH)) {
		n.sendToStation(m.Proxy.Host, n.w.view(msg.AckForward{Proxy: m.Proxy, MH: m.MH, Req: m.Req}.Leg()))
		return
	}
	if m.DelPref {
		n.armRKpR(m.MH, m.Proxy, m.Req, m.Mark)
	}
	deliver := msg.ResultDeliver{Req: m.Req, Payload: m.Payload, DelPref: m.DelPref, Inc: m.Inc}
	if n.w.cfg.HoldForInactive && n.Responsible(m.MH) &&
		n.w.InCell(m.MH, n.id) && !n.w.IsActive(m.MH) {
		x := n.transient(n.entry(m.MH))
		x.held = append(x.held, deliver)
		n.w.Stats.HeldResults.Inc()
		return
	}
	if n.w.cfg.GreetRefresh > 0 && n.w.Reachable(n.id, m.MH) {
		now, window := n.w.Kernel.Now(), n.deliveryWindow()
		x := n.transient(n.entry(m.MH))
		if x.attemptedWithin(m.Req, now, window) {
			// A delivery attempt for this very result went out to the
			// reachable MH within the last round trip; this forward is a
			// redundant copy (beacon- or recovery-prompted) whose
			// original may still be acknowledged.
			return
		}
		x.attempted, x.lastAttempt = true, now
		x.noteAttempt(m.Req, now, window)
	}
	n.w.Wireless.SendDownlink(n.id, m.MH, n.w.view(deliver.Leg()))
}

// deliveryWindow is how long a downlink delivery attempt to a reachable
// MH may remain unconfirmed before the refresh machinery treats it as
// lost: two wireless legs (result out, Ack back) with slack, plus — when
// the backbone runs the ARQ — enough room for a redundant forward that
// was dropped on the wire to be resurrected by retransmission. A world on
// real substrates (NewWorldWith) models no radio latency and gets no
// window from it: there every attempt counts as settled at once.
func (n *MSSNode) deliveryWindow() sim.Time {
	var w sim.Time
	if lat := n.w.cfg.WirelessLatency; lat != nil {
		w = sim.Time(4 * lat.Mean())
	}
	if n.w.cfg.WiredARQ.Enabled {
		w += sim.Time(2 * n.w.cfg.WiredARQ.BackoffCap())
	}
	return w
}

// deliverHeld flushes results held for an inactive MH (footnote 3),
// recording which Acks the deferred update_currentLoc is waiting on.
func (n *MSSNode) deliverHeld(mh ids.MH) {
	x := n.peek(mh).x
	if x == nil || len(x.held) == 0 {
		return
	}
	held := x.held
	x.held = nil
	if x.heldAcks == nil {
		x.heldAcks = make(map[ids.RequestID]bool, len(held))
	}
	for _, r := range held {
		x.heldAcks[r.Req] = true
		n.w.Wireless.SendDownlink(n.id, mh, n.w.view(r.Leg()))
	}
}

// noteHeldAck updates the held-result bookkeeping on an incoming Ack and
// releases the deferred update_currentLoc once all held results are
// acknowledged.
func (n *MSSNode) noteHeldAck(mh ids.MH, req ids.RequestID) {
	x := n.peek(mh).x
	if x == nil || x.heldAcks == nil {
		return
	}
	delete(x.heldAcks, req)
	if len(x.heldAcks) > 0 {
		return
	}
	x.heldAcks = nil
	if !x.deferredUpdate {
		return
	}
	x.deferredUpdate = false
	if pref, ok := n.prefs.get(mh); ok && pref.HasProxy() {
		n.announceLoc(pref.Proxy, mh)
	}
}

// handleDelPrefOnly arms RKpR without a result payload (Fig. 4 case),
// unless its request belongs to a dead incarnation of the MH.
func (n *MSSNode) handleDelPrefOnly(m msg.DelPrefOnly) {
	if n.staleInc(m.Inc, n.incOf(m.MH)) {
		return
	}
	if !n.armRKpR(m.MH, m.Proxy, m.Req, m.Mark) {
		n.w.Stats.OrphanMessages.Inc()
	}
}

// armRKpR takes a del-pref from proxy for req, carrying the proxy's mark
// (§3.3): RKpR arms for req when the pref names that proxy and the mark
// covers routed — every request routed to the proxy had arrived there
// when it sent the del-pref. A del-pref that crossed a request on its way
// arms nothing; the crossing request's own result brings the next one. It
// reports whether the pref names the proxy.
func (n *MSSNode) armRKpR(mh ids.MH, proxy ids.ProxyID, req ids.RequestID, mark uint32) bool {
	pref, ok := n.prefs.get(mh)
	if !ok || pref.Proxy != proxy {
		return false
	}
	if mark >= n.peek(mh).routed {
		pref.RKpR = req.Seq
		n.setPref(mh, pref)
	}
	return true
}

// cacheLookup consults the station's result cache (E17) for the result
// of an identical earlier request. Stale entries count separately: the
// TTL expired between storing and asking.
func (n *MSSNode) cacheLookup(server ids.Server, payload []byte) ([]byte, bool) {
	if n.cache == nil {
		return nil, false
	}
	key := dcache.Key{Server: server, Digest: dcache.Digest(payload)}
	result, outcome := n.cache.Get(key, time.Duration(n.w.Kernel.Now()))
	switch outcome {
	case dcache.Hit:
		n.w.Stats.CacheHits.Inc()
		return result, true
	case dcache.Stale:
		n.w.Stats.CacheStale.Inc()
	default:
		n.w.Stats.CacheMisses.Inc()
	}
	return nil, false
}

// cacheStore feeds a fresh server result into the station's cache.
func (n *MSSNode) cacheStore(server ids.Server, reqPayload, result []byte) {
	if n.cache == nil {
		return
	}
	before := n.cache.Evictions()
	key := dcache.Key{Server: server, Digest: dcache.Digest(reqPayload)}
	n.cache.Put(key, result, time.Duration(n.w.Kernel.Now()))
	if d := n.cache.Evictions() - before; d > 0 {
		n.w.Stats.CacheEvictions.Add(d)
	}
}

// --- Atomic request batches (E17) ------------------------------------
//
// Batch messages travel two legs, distinguished by the Proxy field: the
// wireless uplink leg (Proxy unset) is routed by the respMss like a
// plain request — buffered during hand-offs, forwarded along the
// responsibility chain, creating the proxy if the pref is empty — and
// the wired leg (Proxy set) reaches the hosting station's proxy through
// deliver like a RequestForward. Batch traffic bypasses admission control:
// refusing a single member of a half-transmitted batch would force the
// whole batch toward its abort deadline, turning overload shedding into
// batch aborts; the batch deadline itself is the back-pressure.

// routeUplink applies the respMss routing preamble shared by everything
// a host sends up — requests and batch traffic — and by the batch aborts
// that chase it: buffer during a pending hand-off; when responsibility
// moved on, pass the message along the chain of responsibility (it ends
// at the MH's current, or arriving, station). It reports whether the
// caller should go on processing locally.
func (n *MSSNode) routeUplink(from ids.NodeID, mh ids.MH, m msg.Message) bool {
	h := n.peek(mh)
	if arr := h.arrival(); arr != nil {
		arr.buffered = append(arr.buffered, inboxItem{from: from, env: msg.EnvelopeOf(m)})
		return false
	}
	if n.Responsible(mh) {
		return true
	}
	if h.departed() {
		n.sendWired(h.forwardTo.Node(), m)
	} else {
		n.w.Stats.OrphanMessages.Inc()
	}
	return false
}

// handleBatchUplink routes the wireless leg of batch traffic: gated by
// incarnation and counted in routed like a plain request (§3.3
// proxy-removal accounting), then handed to the host's proxy — here, or
// at its host under the identity filled in.
func (n *MSSNode) handleBatchUplink(from ids.NodeID, m msg.ProxyAddressed) {
	var (
		mh     ids.MH
		inc    ids.Incarnation
		member ids.RequestID
	)
	switch v := m.(type) {
	case msg.BatchOpen:
		mh, inc = v.MH, normInc(v.Inc)
	case msg.BatchItem:
		mh, inc, member = v.MH, normInc(v.Inc), v.Req
	case msg.BatchCommit:
		mh, inc = v.MH, normInc(v.Inc)
	default:
		n.w.Stats.OrphanMessages.Inc() // no other kind travels unaddressed
		return
	}
	if !n.routeUplink(from, mh, m) {
		return
	}
	if n.staleInc(inc, n.incOf(mh)) {
		return
	}
	n.noteInc(mh, inc)
	id, local := n.proxyFor(mh, member.Seq, ids.NoServer, nil)
	switch local.(type) {
	case *Proxy:
		local.handle(from, m)
	default:
		if id.Host == n.id {
			n.w.violate(violPrefDeadProxy, mh, id, member)
			return
		}
		n.sendWired(id.Host.Node(), m.WithProxy(id))
	}
}

// handleBatchAbort delivers a batch abort to the MH through its current
// respMss. The aborted members pin nothing: the proxy counted them in its
// mark when they arrived.
func (n *MSSNode) handleBatchAbort(from ids.NodeID, in msg.Message) {
	m := in.(msg.BatchAbort)
	if !n.routeUplink(from, m.MH, in) {
		return
	}
	n.w.Wireless.SendDownlink(n.id, m.MH, in)
}

// sendWired transmits to another static host over the wired network,
// counting hand-off and migration traffic on the way out.
func (n *MSSNode) sendWired(to ids.NodeID, m msg.Message) {
	n.w.countWired(m)
	n.w.Wired.Send(n.id.Node(), to, m)
}

// sendToStation transmits to another MSS, short-circuiting delivery when
// the destination is this station itself (a proxy talking to its own
// host needs no network hop; cf. Fig. 3, where proxy and respMss start
// co-located). The self-hop keeps m's envelope, as a frame would.
func (n *MSSNode) sendToStation(to ids.MSS, m msg.Message) {
	if to == n.id {
		n.selfHops.Defer(0, msg.EnvelopeOf(m))
		return
	}
	n.sendWired(to.Node(), m)
}
