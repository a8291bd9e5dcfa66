package rdpcore

import (
	"slices"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
)

// proxyReq is one entry of the proxy's requestList. A request is
// "pending" from insertion until its Ack arrives (§3.1); the stored
// result, once present, survives until then so it can be re-sent on
// every location update.
type proxyReq struct {
	id        ids.RequestID
	server    ids.Server
	payload   []byte
	result    []byte
	hasResult bool
	forwarded bool // result forwarded at least once (retransmission accounting)
	// batch, when valid, marks this request a member of an atomic batch
	// (E17): its result is withheld until the batch releases.
	batch ids.BatchID
	// inc is the MH incarnation that issued the request (E18). A
	// rebooted host restarts its sequence counter, so the same
	// RequestID can name two different requests across a crash; the
	// incarnation disambiguates them.
	inc ids.Incarnation
}

// requestList is a proxy's requestList (§3.1) in insertion order, which
// keeps iteration deterministic. It holds one MH's pending requests — a
// handful — so lookup and removal are scans.
type requestList []*proxyReq

// get returns req's entry, or nil.
func (l requestList) get(req ids.RequestID) *proxyReq {
	for _, r := range l {
		if r.id == req {
			return r
		}
	}
	return nil
}

// add appends a new entry.
func (l *requestList) add(r *proxyReq) { *l = append(*l, r) }

// remove splices req's entry out, keeping the order of the rest, and
// returns it (nil if absent).
func (l *requestList) remove(req ids.RequestID) *proxyReq {
	for i, r := range *l {
		if r.id == req {
			*l = slices.Delete(*l, i, i+1)
			return r
		}
	}
	return nil
}

// proxyBatch is the proxy side of one atomic batch (E17): the member
// set in arrival order, the commit's member count, and the release
// flag. Released batches stay as memos so late duplicate items cannot
// re-execute a completed computation; aborted ones move to the aborted
// memo instead.
type proxyBatch struct {
	id        ids.BatchID
	members   []ids.RequestID
	expected  uint32 // commit's member count; 0 until committed
	committed bool
	released  bool
	// inc is the MH incarnation that opened the batch (E18).
	inc ids.Incarnation
}

// clone returns a deep copy: what the journal stores, and what a restart
// revives from it.
func (b proxyBatch) clone() proxyBatch {
	b.members = slices.Clone(b.members)
	return b
}

// Proxy is the paper's proxy-for-requests (§3.1): created at the MH's
// respMss when it issues a request and has none, it provides the fixed
// wired-network location for server replies, tracks pending requests,
// stores results, and forwards them to the MH's current respMss. It
// lives inside its hosting MSSNode and communicates through it.
type Proxy struct {
	id         ids.ProxyID
	mh         ids.MH
	host       *MSSNode
	currentLoc ids.MSS
	reqs       requestList
	createdAt  sim.Time

	// Atomic batch state (E17). batchOrder/abortOrder keep map iteration
	// deterministic for persistence and migration transfer. abortedBatches
	// is the durable abort memo: batch id -> member list at abort time, so
	// a late or replayed batch message is answered with the same abort.
	batches        map[ids.BatchID]*proxyBatch
	batchOrder     []ids.BatchID
	abortedBatches map[ids.BatchID][]ids.RequestID
	abortOrder     []ids.BatchID

	// remoteForwards counts results forwarded to a station other than the
	// host since creation or installation here, and lastMigAttempt is the
	// migration-policy cooldown clock (see internal/proxymig). A fresh
	// proxy may offer immediately (the clock starts backdated by the
	// cooldown); a migrated incarnation must sit out MinInterval first —
	// the ping-pong guard (see handleMigState). migOffered marks an offer
	// made at lastMigAttempt and not yet answered. All three are
	// per-incarnation observations, deliberately volatile across crash
	// recovery.
	remoteForwards int
	lastMigAttempt sim.Time
	migOffered     bool

	// Incarnation lease (E18, Config.LeaseTTL > 0): the MH's respMss
	// heartbeats every proxy it holds a preference for; a heartbeat
	// carrying a newer incarnation scrubs state owned by dead ones, and
	// a lease that expires without renewal reclaims the orphan. leaseInc
	// is the newest vouched-for incarnation, and leaseEpoch counts the
	// renewals: an expiry timer armed under an earlier count is superseded.
	leaseInc   ids.Incarnation
	leaseEpoch uint64
}

// normInc maps the zero "unknown" incarnation onto the first one: a
// message or record without incarnation information is, by definition,
// from the pre-E18 world where every host was on its first boot.
func normInc(i ids.Incarnation) ids.Incarnation {
	if i == 0 {
		return ids.FirstIncarnation
	}
	return i
}

// incLess orders two incarnation tags after normalization.
func incLess(a, b ids.Incarnation) bool { return normInc(a) < normInc(b) }

// newProxy creates a proxy hosted at host on behalf of mh. Its
// currentLoc starts as the hosting station itself, since the proxy is
// always created at the MH's current respMss (§3.1).
func newProxy(id ids.ProxyID, mh ids.MH, host *MSSNode) *Proxy {
	return &Proxy{
		id:             id,
		mh:             mh,
		host:           host,
		currentLoc:     host.id,
		createdAt:      host.w.Kernel.Now(),
		lastMigAttempt: host.w.Kernel.Now() - sim.Time(host.w.cfg.Migration.MinInterval),
	}
}

// setLazy stores m[k] = v in a map made on first write: most proxies
// never see a batch (E17) and most hosts never a busy-NACK, a retry
// timeout or a stray result, so those maps start nil.
func setLazy[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[k] = v
}

// ID returns the proxy identifier.
func (p *Proxy) ID() ids.ProxyID { return p.id }

// MH returns the mobile host this proxy represents.
func (p *Proxy) MH() ids.MH { return p.mh }

// CurrentLoc returns the respMss the proxy currently forwards to.
func (p *Proxy) CurrentLoc() ids.MSS { return p.currentLoc }

// Pending returns the number of pending (un-acked) requests.
func (p *Proxy) Pending() int { return len(p.reqs) }

// handle takes one message addressed to the proxy (MSSNode.deliver). A
// relayed Ack carrying del-proxy ends it (§3.3).
func (p *Proxy) handle(_ ids.NodeID, m msg.ProxyAddressed) {
	switch v := m.(type) {
	case msg.RequestForward:
		p.addRequest(v.Req, v.Server, v.Payload, v.Inc)
	case msg.UpdateCurrentLoc:
		p.onUpdateLoc(v.NewLoc)
	case msg.AckForward:
		if p.onAck(v.Req, v.DelProxy) {
			p.host.retire(p)
			p.host.w.Stats.ProxiesDeleted.Inc()
		}
	case msg.ServerResult:
		p.onServerResult(v.Req, v.Payload)
	case msg.LeaseHeartbeat:
		p.renewLease(v.Inc)
	case msg.BatchOpen:
		p.onBatchOpen(v.Batch, v.Inc)
	case msg.BatchItem:
		p.onBatchItem(v)
	case msg.BatchCommit:
		p.onBatchCommit(v)
	default:
		p.host.w.Stats.OrphanMessages.Inc() // group signaling for a private proxy
	}
}

// addRequest registers a request and issues it to the server. From the
// server's perspective the proxy is a fixed client (§3.1). A duplicate
// registration (client-side retry) is not re-issued to the server; if
// the result is already stored it is re-forwarded instead, which is what
// lets a stationary MH recover from a lost wireless delivery.
//
// Incarnation arbitration (E18): an amnesiac reboot restarts the MH's
// sequence counter, so the same RequestID can arrive twice meaning two
// different requests. A registration from an older incarnation than the
// stored entry is a ghost retry of a dead host and is dropped; one from
// a newer incarnation is a brand-new request that reuses the identifier,
// so the orphaned entry is replaced and the new request executed.
func (p *Proxy) addRequest(req ids.RequestID, server ids.Server, payload []byte, inc ids.Incarnation) {
	r := p.reqs.get(req)
	if r != nil {
		if incLess(inc, r.inc) {
			p.host.w.Stats.StaleIncarnationDrops.Inc()
			return
		}
		if !incLess(r.inc, inc) {
			if r.hasResult {
				p.forwardResult(r)
			}
			return
		}
		p.detachFromBatch(req, r)
		r.server, r.payload, r.inc = server, payload, inc
		r.result, r.hasResult, r.forwarded = nil, false, false
	} else {
		r = &proxyReq{id: req, server: server, payload: payload, inc: inc}
		p.reqs.add(r)
	}
	if result, ok := p.host.cacheLookup(server, payload); ok {
		// Answered from the station's result cache (E17): no server
		// round-trip. The cached copy is forwarded like a fresh result.
		r.result = result
		r.hasResult = true
		p.forwardResult(r)
		return
	}
	p.host.sendWired(server.Node(), msg.ServerRequest{Proxy: p.id, Req: req, Payload: payload})
}

// detachFromBatch removes a replaced request from its old batch's
// member list (the batch belonged to a dead incarnation; its release
// bookkeeping must not wait on an identifier that now names something
// else).
func (p *Proxy) detachFromBatch(req ids.RequestID, r *proxyReq) {
	if !r.batch.Valid() {
		return
	}
	if b := p.batches[r.batch]; b != nil {
		for i, q := range b.members {
			if q == req {
				b.members = append(b.members[:i], b.members[i+1:]...)
				break
			}
		}
	}
	r.batch = ids.BatchID{}
}

// onServerResult stores the server's reply and forwards it to the MH's
// current location (§3.1). Late or duplicate server replies (for
// requests already acked and removed) are dropped.
func (p *Proxy) onServerResult(req ids.RequestID, payload []byte) {
	r := p.reqs.get(req)
	if r == nil {
		p.host.w.Stats.OrphanMessages.Inc()
		return
	}
	if r.hasResult {
		// Duplicate server reply; the stored copy wins.
		return
	}
	r.result = payload
	r.hasResult = true
	p.host.cacheStore(r.server, r.payload, payload)
	if r.batch.Valid() {
		// Batch members are withheld until the whole batch is complete;
		// this result may be the one that releases it.
		p.checkBatchRelease(p.batches[r.batch])
		return
	}
	p.forwardResult(r)
}

// forwardResult sends one stored result to currentLoc, piggybacking
// del-pref when this is the proxy's only pending request (§3.3: the
// flag rides on "the result of the last pending request").
func (p *Proxy) forwardResult(r *proxyReq) {
	if r.batch.Valid() {
		// Atomicity gate (E17): no member result ever leaves the proxy
		// before its batch releases. This single check covers every
		// forwarding path — fresh results, location updates, crash
		// recovery resends — so an aborted batch delivers nothing and a
		// released one delivers everything.
		if b := p.batches[r.batch]; b == nil || !b.released {
			p.host.w.Stats.BatchResultsWithheld.Inc()
			return
		}
	}
	delPref := len(p.reqs) == 1
	if r.forwarded {
		p.host.w.Stats.Retransmissions.Inc()
	}
	r.forwarded = true
	p.host.w.Stats.ResultForwards[p.host.id]++
	fwd := msg.ResultForward{Proxy: p.id, MH: p.mh, Req: r.id, Payload: r.result, DelPref: delPref, Inc: r.inc}
	p.host.sendToStation(p.currentLoc, fwd)
	// Every forward is a migration-policy observation (migration.go); a
	// fired trigger only sends an offer, so the proxy stays intact here.
	p.host.noteForward(p)
}

// onUpdateLoc handles update_currentLoc: record the MH's new respMss and
// re-send every stored, not-yet-acknowledged result to it (§3.1: "causes
// the variable currentLoc to be updated and any non-acknowledged results
// from pending requests to be re-sent to the new location").
func (p *Proxy) onUpdateLoc(newLoc ids.MSS) {
	p.currentLoc = newLoc
	for _, r := range p.reqs {
		if r.hasResult {
			p.forwardResult(r)
		}
	}
}

// onAck processes a relayed Ack: the request is completed and removed
// from the requestList (§3.1). It reports whether the proxy must now be
// deleted (del-proxy piggybacked; §3.3).
//
// Fig. 4 rule: if after removal exactly one pending request remains and
// its result has already been forwarded, the proxy sends the special
// del-pref-only message so the respMss can arm RKpR.
func (p *Proxy) onAck(req ids.RequestID, delProxy bool) (deleted bool) {
	r := p.reqs.remove(req)
	if delProxy {
		if len(p.reqs) != 0 {
			// del-proxy may only be confirmed when no request is pending
			// (§3.3); a violation indicates a protocol bug.
			p.host.w.violate(violDelProxyPending, p.mh, p.id, req)
		}
		return true
	}
	if r != nil && len(p.reqs) == 1 {
		if sole := p.reqs[0]; sole.hasResult && sole.forwarded {
			p.host.sendToStation(p.currentLoc, msg.DelPrefOnly{Proxy: p.id, MH: p.mh})
		}
	}
	return false
}

// --- Atomic request batches (E17) ------------------------------------
//
// The proxy is the batch coordinator: it collects member results but
// withholds every one of them (forwardResult gate) until the commit has
// arrived and all members have results, then releases the batch and
// forwards the members in order. A batch that misses its deadline is
// aborted: members are dropped, the MH is told to abandon them, and the
// abort memo persists so replayed batch traffic gets the same answer.

// ensureBatch returns the batch record for id, creating it on first
// contact (any member/commit message may arrive first after a retry).
//
// Incarnation arbitration (E18) mirrors addRequest: batch identifiers
// restart with the host's sequence counter, so inc decides whether a
// colliding identifier is a ghost (older — drop, nil returned), the
// same batch (equal or unknown), or a reuse by a rebooted host (newer —
// the orphaned record is torn down and replaced).
func (p *Proxy) ensureBatch(id ids.BatchID, inc ids.Incarnation) *proxyBatch {
	if b, ok := p.batches[id]; ok {
		if inc != 0 {
			if incLess(inc, b.inc) {
				p.host.w.Stats.StaleIncarnationDrops.Inc()
				return nil
			}
			if incLess(b.inc, inc) {
				p.dropBatch(b)
			} else {
				b.inc = inc
				return b
			}
		} else {
			return b
		}
	}
	b := &proxyBatch{id: id, inc: inc}
	setLazy(&p.batches, id, b)
	p.batchOrder = append(p.batchOrder, id)
	p.host.w.Stats.BatchesOpened.Inc()
	p.armBatchDeadline(b)
	return b
}

// dropBatch takes a batch's members off the requestList and the batch
// itself off the live set. That is all that happens to a batch owned by a
// dead incarnation: unlike abortBatch, no abort memo is kept and nobody is
// notified — the owner no longer exists to care.
func (p *Proxy) dropBatch(b *proxyBatch) {
	for _, req := range b.members {
		p.reqs.remove(req)
	}
	delete(p.batches, b.id)
	if i := slices.Index(p.batchOrder, b.id); i >= 0 {
		p.batchOrder = slices.Delete(p.batchOrder, i, i+1)
	}
}

// onBatchOpen registers a batch. A re-open of an aborted batch (retry
// raced the abort) is answered with the abort again.
func (p *Proxy) onBatchOpen(id ids.BatchID, inc ids.Incarnation) {
	if reqs, ok := p.abortedBatches[id]; ok {
		p.sendAbort(id, reqs)
		return
	}
	p.ensureBatch(id, inc)
}

// onBatchItem registers one batch member and issues it to the server
// (or answers it from the cache).
func (p *Proxy) onBatchItem(m msg.BatchItem) {
	if reqs, ok := p.abortedBatches[m.Batch]; ok {
		p.sendAbort(m.Batch, reqs)
		return
	}
	b := p.ensureBatch(m.Batch, m.Inc)
	if b == nil {
		return
	}
	if b.released {
		// Late duplicate of an already-delivered batch: the members were
		// forwarded (and possibly acked away); never re-execute.
		return
	}
	if p.reqs.get(m.Req) != nil {
		return // duplicate member (retry); first registration wins
	}
	r := &proxyReq{id: m.Req, server: m.Server, payload: m.Payload, batch: m.Batch, inc: m.Inc}
	p.reqs.add(r)
	b.members = append(b.members, m.Req)
	if result, ok := p.host.cacheLookup(m.Server, m.Payload); ok {
		r.result = result
		r.hasResult = true
		p.checkBatchRelease(b)
		return
	}
	p.host.sendWired(m.Server.Node(), msg.ServerRequest{Proxy: p.id, Req: m.Req, Payload: m.Payload})
}

// onBatchCommit seals the member set. The commit's count is the
// completeness criterion: release waits until that many members are
// registered and all hold results.
func (p *Proxy) onBatchCommit(m msg.BatchCommit) {
	if reqs, ok := p.abortedBatches[m.Batch]; ok {
		p.sendAbort(m.Batch, reqs)
		return
	}
	// BatchCommit carries no incarnation; the open/items that precede it
	// already settled the batch's ownership.
	b := p.ensureBatch(m.Batch, 0)
	if b.committed {
		p.checkBatchRelease(b) // duplicate commit (retry); just re-check
		return
	}
	b.committed = true
	b.expected = m.Count
	p.host.w.Stats.BatchesCommitted.Inc()
	p.checkBatchRelease(b)
}

// checkBatchRelease releases the batch once it is committed, fully
// registered, and every member holds a result; then all members are
// forwarded in registration order.
func (p *Proxy) checkBatchRelease(b *proxyBatch) {
	if b == nil || b.released || !b.committed || uint32(len(b.members)) != b.expected {
		return
	}
	for _, req := range b.members {
		if r := p.reqs.get(req); r == nil || !r.hasResult {
			return
		}
	}
	b.released = true
	for _, req := range b.members {
		p.forwardResult(p.reqs.get(req))
	}
}

// abortBatch drops every member, records the abort memo, and notifies
// the MH. Exactly-once for aborted members means exactly-zero: the
// forwardResult gate guarantees none was ever delivered.
func (p *Proxy) abortBatch(b *proxyBatch) {
	reqs := append([]ids.RequestID(nil), b.members...)
	p.dropBatch(b)
	setLazy(&p.abortedBatches, b.id, reqs)
	p.abortOrder = append(p.abortOrder, b.id)
	p.host.w.Stats.BatchesAborted.Inc()
	p.sendAbort(b.id, reqs)
}

func (p *Proxy) sendAbort(id ids.BatchID, reqs []ids.RequestID) {
	p.host.sendToStation(p.currentLoc, msg.BatchAbort{Proxy: p.id, MH: p.mh, Batch: id, Reqs: reqs})
}

// armBatchDeadline starts the batch's abort timer: it aborts this very
// batch record if it is still live, here, when the deadline passes. A
// restored or migrated batch is a new record that arms its own fresh, full
// deadline — conservative, but deadline precision across crashes and moves
// is not part of the atomicity contract.
func (p *Proxy) armBatchDeadline(b *proxyBatch) {
	host := p.host
	if host.w.cfg.BatchDeadline <= 0 {
		return
	}
	host.after(host.w.cfg.BatchDeadline, func() {
		if host.proxyAt(p.id.Seq) == p && p.batches[b.id] == b && !b.released {
			host.markSlot(p.id.Seq)
			p.abortBatch(b)
		}
	})
}

// --- Incarnation leases (E18) -----------------------------------------
//
// A proxy exists on behalf of one incarnation of one mobile host. When
// the host crashes and loses its memory, nothing in the base protocol
// ever acknowledges the stored results — the proxy would sit pending
// forever. Under Config.LeaseTTL the MH's respMss vouches for its
// registered hosts with periodic heartbeats; a proxy whose lease
// expires unrenewed is reclaimed, and a heartbeat carrying a newer
// incarnation scrubs everything owned by dead ones.

// armLease (re)starts the proxy's lease-expiry timer; each arming
// supersedes the one before (leaseEpoch).
func (p *Proxy) armLease() {
	host := p.host
	ttl := host.w.cfg.LeaseTTL
	if ttl <= 0 {
		return
	}
	p.leaseEpoch++
	epoch := p.leaseEpoch
	host.after(ttl, func() {
		if p.leaseEpoch == epoch {
			// No renewal for a full TTL: the host (and every incarnation up
			// to the last one vouched for) is presumed dead. reclaimProxy
			// does nothing for a proxy that is gone already.
			host.reclaimProxy(p, normInc(p.leaseInc))
		}
	})
}

// renewLease processes one heartbeat. A newer incarnation than the one
// last vouched for means the host rebooted: state owned by older
// incarnations is scrubbed, and a proxy left completely empty by the
// scrub is reclaimed on the spot (the pref at the respMss is dropped by
// the reclaim memo, so the next request builds a fresh proxy).
func (p *Proxy) renewLease(inc ids.Incarnation) {
	p.host.w.Stats.LeaseHeartbeats.Inc()
	if incLess(p.leaseInc, inc) {
		p.scrubStale(inc)
		p.leaseInc = inc
		if len(p.reqs) == 0 && len(p.batches) == 0 {
			// Only the incarnations below inc are dead; the memo must not
			// sweep up requests the live incarnation has in flight.
			p.host.reclaimProxy(p, inc-1)
			return
		}
	}
	p.armLease()
}

// scrubStale drops every request and batch owned by an incarnation
// older than inc. No abort or ack flows anywhere: the owner lost its
// memory of all of it, and the incarnation gates keep any replayed
// traffic from resurrecting it.
func (p *Proxy) scrubStale(inc ids.Incarnation) {
	var deadBatches []*proxyBatch
	for _, id := range p.batchOrder {
		if b := p.batches[id]; b != nil && incLess(b.inc, inc) {
			deadBatches = append(deadBatches, b)
		}
	}
	for _, b := range deadBatches {
		p.dropBatch(b)
	}
	p.reqs = slices.DeleteFunc(p.reqs, func(r *proxyReq) bool {
		if !incLess(r.inc, inc) {
			return false
		}
		p.host.w.Stats.StaleIncarnationDrops.Inc()
		return true
	})
}
