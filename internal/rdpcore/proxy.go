package rdpcore

import (
	"math"
	"slices"

	"repro/internal/aggstate"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
)

// Proxy is the paper's proxy-for-requests (§3.1): created at the MH's
// respMss when it issues a request and has none, it provides the fixed
// wired-network location for server replies, tracks pending requests,
// stores results, and forwards them to the MH's current respMss. It
// lives inside its hosting MSSNode and communicates through it. A group
// proxy (E16, groupproxy.go) is a Proxy too, serving a cell's
// subscribers of one topic under a durable life-cycle.
type Proxy struct {
	id         ids.ProxyID
	mh         ids.MH
	host       *MSSNode
	currentLoc ids.MSS
	createdAt  sim.Time

	// reqs is the requestList (§3.1) in insertion order, which keeps
	// iteration deterministic; it holds one MH's pending requests — a
	// handful — so lookup and removal are scans. batches holds the atomic
	// batches (E17) above their hosts' floors in opening order: live,
	// released, and the abort memos that answer a retry with the same
	// abort; floors holds one floor per origin host (admitBatch). With the
	// identity, currentLoc and leaseInc they are the proxy's durable image
	// (image, revive). first is reqs' backing array until a second request
	// arrives: most proxies only ever hold one. A record reused from the
	// station's spare stock keeps the array it had, up to spareReqs
	// entries (MSSNode.stockRetired).
	reqs    []msg.ProxyReq
	first   [1]msg.ProxyReq
	batches []msg.ProxyBatch
	floors  []msg.BatchFloor
	// mark is the highest request sequence the proxy has received for its
	// host — requests and batch members, aborted ones too — within
	// markInc, the newest incarnation it has heard from: a del-pref
	// carries it, so the respMss can tell whether every request it routed
	// here has arrived (§3.3, armRKpR).
	mark    uint32
	markInc ids.Incarnation

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

	// group makes the proxy a group proxy: nil for the paper's private
	// one.
	group *proxyGroup
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

// newProxy creates a proxy hosted at host on behalf of mh, over a record
// of host's spare stock when it has one. Its currentLoc starts as the
// hosting station itself, since the proxy is always created at the MH's
// current respMss (§3.1).
func newProxy(id ids.ProxyID, mh ids.MH, host *MSSNode) *Proxy {
	p := pop(&host.spareProxies)
	if p == nil {
		p = new(Proxy)
		p.reqs = p.first[:0]
	}
	*p = Proxy{
		id:             id,
		mh:             mh,
		host:           host,
		currentLoc:     host.id,
		createdAt:      host.w.Kernel.Now(),
		lastMigAttempt: host.w.Kernel.Now() - sim.Time(host.w.cfg.Migration.MinInterval),
		reqs:           p.reqs,
	}
	return p
}

// setLazy stores m[k] = v in a map made on first write: most hosts never
// see a batch (E17), a busy-NACK, a retry timeout or a stray result, so
// those maps start nil.
func setLazy[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[k] = v
}

// raise notes that the proxy received request req of incarnation inc: a
// newer incarnation restarts the mark, as its host's sequence does.
func (p *Proxy) raise(req ids.RequestID, inc ids.Incarnation) {
	if incLess(p.markInc, inc) {
		p.mark, p.markInc = 0, inc
	}
	if !incLess(inc, p.markInc) {
		p.mark = max(p.mark, req.Seq)
	}
}

// ID returns the proxy identifier.
func (p *Proxy) ID() ids.ProxyID { return p.id }

// MH returns the mobile host this proxy represents.
func (p *Proxy) MH() ids.MH { return p.mh }

// CurrentLoc returns the respMss the proxy currently forwards to.
func (p *Proxy) CurrentLoc() ids.MSS { return p.currentLoc }

// Pending returns the number of pending (un-acked) requests.
func (p *Proxy) Pending() int { return len(p.reqs) }

// req returns id's requestList entry, or nil.
func (p *Proxy) req(id ids.RequestID) *msg.ProxyReq {
	for i := range p.reqs {
		if p.reqs[i].Req == id {
			return &p.reqs[i]
		}
	}
	return nil
}

// removeReq takes member id off its entry, and reports whether it was
// there. An entry that no member waits on any more is spliced out of the
// requestList, keeping the order of the rest: a private entry's one
// member is its request's origin, so that entry goes with it.
func (p *Proxy) removeReq(id ids.RequestID) bool {
	for i := range p.reqs {
		if ws := p.group.waitersOf(p.reqs[i].Req); ws != nil {
			j, ok := ws.ackIdx[id]
			if !ok || ws.list[j].acked {
				continue
			}
			ws.list[j].acked = true
			if ws.unacked--; ws.unacked > 0 {
				return true
			}
			delete(p.group.waiters, p.reqs[i].Req)
		} else if p.reqs[i].Req != id {
			continue
		}
		p.reqs = slices.Delete(p.reqs, i, i+1)
		return true
	}
	return false
}

// batch returns id's batch record — live, released or an abort memo — or
// nil.
func (p *Proxy) batch(id ids.BatchID) *msg.ProxyBatch {
	if i := slices.IndexFunc(p.batches, func(b msg.ProxyBatch) bool { return b.Batch == id }); i >= 0 {
		return &p.batches[i]
	}
	return nil
}

// handle takes one message addressed to the proxy (MSSNode.deliver). A
// relayed Ack carrying del-proxy ends it (§3.3). A group proxy also takes
// the coalesced signaling, and registers a forwarded request's origin at
// the sending station — a member that moved to another cell keeps its
// shared pref, so its later requests arrive as forwards.
func (p *Proxy) handle(from ids.NodeID, m msg.Message) {
	switch m.Kind() {
	case msg.KindRequestForward:
		l := p.host.w.legOf(m)
		p.addRequest(l.Req, l.Server, l.Payload, l.Inc, from.MSS())
	case msg.KindUpdateCurrentLoc:
		l := p.host.w.legOf(m)
		var moved *aggstate.Set // a private proxy's one host
		if p.group != nil {
			moved = new(aggstate.Set)
			moved.Add(uint32(l.MH))
		}
		p.onUpdateLoc(l.MSS, moved)
	case msg.KindAckForward:
		l := p.host.w.legOf(m)
		p.onAckForward(l.Req, l.Flag)
	case msg.KindServerResult:
		l := p.host.w.legOf(m)
		p.onServerResult(l.Req, l.Payload)
	case msg.KindLeaseHeartbeat:
		p.renewLease(m.(msg.LeaseHeartbeat).Inc)
	case msg.KindBatchOpen:
		v := m.(msg.BatchOpen)
		p.admitBatch(v.Batch, v.Inc, v.Floor)
	case msg.KindBatchItem:
		p.onBatchItem(m.(msg.BatchItem))
	case msg.KindBatchCommit:
		p.onBatchCommit(m.(msg.BatchCommit))
	case msg.KindGroupUpdateLoc:
		v := m.(msg.GroupUpdateLoc)
		if moved, err := aggstate.DecodeDelta(v.Members); err == nil && p.group != nil {
			p.onUpdateLoc(v.NewLoc, moved)
			return
		}
		p.host.w.Stats.OrphanMessages.Inc()
	case msg.KindGroupAckForward:
		// Seqs aligns with the ascending iteration of the member set; a
		// mismatched pair is rejected whole.
		v := m.(msg.GroupAckForward)
		set, err := aggstate.DecodeDelta(v.Members)
		if err != nil || set.Len() != len(v.Seqs) || p.group == nil {
			p.host.w.Stats.OrphanMessages.Inc()
			return
		}
		for i, mh := range set.Members() {
			p.onAck(ids.RequestID{Origin: ids.MH(mh), Seq: v.Seqs[i]}, false)
		}
	default:
		p.host.w.Stats.OrphanMessages.Inc()
	}
}

// onAckForward takes a relayed Ack; one carrying del-proxy ends the
// proxy.
func (p *Proxy) onAckForward(req ids.RequestID, delProxy bool) {
	if p.onAck(req, delProxy) {
		p.host.retire(p)
		p.host.recycle(p)
		p.host.w.Stats.ProxiesDeleted.Inc()
	}
}

// addRequest registers a request, sent by the station at from, and
// issues it to the server. A duplicate registration (client-side retry)
// is not re-issued to the server; if the result is already stored it is
// re-forwarded instead, which is what lets a stationary MH recover from a
// lost wireless delivery. A group proxy registers its origin as a member
// at from, and only the first member asking a question opens an entry
// and issues it; the others join that entry (join).
//
// Incarnation arbitration (E18): an amnesiac reboot restarts the MH's
// sequence counter, so the same RequestID can arrive twice meaning two
// different requests. A registration from an older incarnation than the
// stored entry is a ghost retry of a dead host and is dropped; one from
// a newer incarnation is a brand-new request that reuses the identifier,
// so the orphaned entry is replaced where it stands and the new request
// executed.
func (p *Proxy) addRequest(req ids.RequestID, server ids.Server, payload []byte, inc ids.Incarnation, from ids.MSS) {
	if p.group != nil {
		p.join(req, server, payload, inc, from)
		return
	}
	p.raise(req, inc)
	r := p.req(req)
	switch {
	case r == nil:
		p.reqs = append(p.reqs, msg.ProxyReq{})
		r = &p.reqs[len(p.reqs)-1]
	case incLess(inc, r.Inc):
		p.host.w.Stats.StaleIncarnationDrops.Inc()
		return
	case !incLess(r.Inc, inc):
		if r.HasResult {
			p.forwardResult(r, nil)
		}
		return
	}
	// Replacing the entry clears its tag: the new request is no member of
	// the dead incarnation's batch.
	*r = msg.ProxyReq{Req: req, Server: server, Payload: payload, Inc: inc}
	p.issue(r)
}

// issue sends a newly registered request to its server — from the
// server's perspective the proxy is a fixed client (§3.1) — or answers it
// from the station's result cache (E17), with no server round trip.
func (p *Proxy) issue(r *msg.ProxyReq) {
	if result, ok := p.host.cacheLookup(r.Server, r.Payload); ok {
		r.Result, r.HasResult = result, true
		p.resultReady(r)
		return
	}
	p.host.sendWired(r.Server.Node(), p.host.w.view(msg.ServerRequest{Proxy: p.id, Req: r.Req, Payload: r.Payload}.Leg()))
}

// onServerResult stores the server's reply and forwards it to the MH's
// current location (§3.1). Late or duplicate server replies (for
// requests already acked and removed) are dropped.
func (p *Proxy) onServerResult(req ids.RequestID, payload []byte) {
	r := p.req(req)
	if r == nil {
		p.host.w.Stats.OrphanMessages.Inc()
		return
	}
	if r.HasResult {
		// Duplicate server reply; the stored copy wins.
		return
	}
	r.Result, r.HasResult = payload, true
	p.host.cacheStore(r.Server, r.Payload, payload)
	p.resultReady(r)
}

// resultReady forwards a freshly stored result — unless it belongs to a
// batch member, which is withheld until the whole batch is complete: then
// this result may be the one that releases it. A shared entry's waiters
// are indexed for their acks from then on.
func (p *Proxy) resultReady(r *msg.ProxyReq) {
	if ws := p.group.waitersOf(r.Req); ws != nil {
		ws.indexAcks()
	}
	if r.Batch.Valid() {
		p.checkBatchRelease(p.batch(r.Batch))
		return
	}
	p.forwardResult(r, nil)
}

// forwardResult sends one stored result to every member of its entry
// that has not acknowledged it — or, when moved is set, to those of them
// in moved.
func (p *Proxy) forwardResult(r *msg.ProxyReq, moved *aggstate.Set) {
	if r.Batch.Valid() {
		// Atomicity gate (E17): no member result ever leaves the proxy
		// before its batch releases. This single check covers every
		// forwarding path — fresh results, location updates, crash
		// recovery resends — so an aborted batch delivers nothing and a
		// released one delivers everything.
		if b := p.batch(r.Batch); b == nil || !b.Released {
			p.host.w.Stats.BatchResultsWithheld.Inc()
			return
		}
	}
	ws := p.group.waitersOf(r.Req)
	if ws == nil {
		if moved == nil || moved.Contains(uint32(r.Req.Origin)) {
			p.forwardTo(r, r.Req, r.Inc, &r.Forwarded)
		}
		return
	}
	for i := range ws.list {
		if w := &ws.list[i]; !w.acked && (moved == nil || moved.Contains(uint32(w.req.Origin))) {
			p.forwardTo(r, w.req, w.inc, &w.forwarded)
		}
	}
}

// locOf returns where member mh is: at its memberLoc exception if it has
// one, else at currentLoc.
func (p *Proxy) locOf(mh ids.MH) ids.MSS {
	if g := p.group; g != nil {
		if loc, ok := g.memberLoc[mh]; ok {
			return loc
		}
	}
	return p.currentLoc
}

// forwardTo sends r's result to member req, of incarnation inc, at its
// location. del-pref rides along when this is the proxy's only pending request
// (§3.3: the flag rides on "the result of the last pending request") —
// never from a group proxy, which is never removed.
func (p *Proxy) forwardTo(r *msg.ProxyReq, req ids.RequestID, inc ids.Incarnation, forwarded *bool) {
	if *forwarded {
		p.host.w.Stats.Retransmissions.Inc()
	}
	*forwarded = true
	p.host.w.Stats.ResultForwards[p.host.id]++
	if p.group != nil {
		p.host.w.Stats.GroupFanouts.Inc()
	}
	loc := p.locOf(req.Origin)
	fwd := msg.ResultForward{Proxy: p.id, MH: req.Origin, Req: req, Payload: r.Result, Inc: inc}
	if len(p.reqs) == 1 && p.group == nil {
		fwd.DelPref, fwd.Mark = true, p.mark
	}
	p.host.sendToStation(loc, p.host.w.view(fwd.Leg()))
	// Every forward is a migration-policy observation (migration.go); a
	// fired trigger only sends an offer, so the proxy stays intact here.
	p.host.noteForward(p, loc)
}

// onUpdateLoc handles update_currentLoc: record the MH's new respMss and
// re-send every stored, not-yet-acknowledged result to it (§3.1: "causes
// the variable currentLoc to be updated and any non-acknowledged results
// from pending requests to be re-sent to the new location"). A group
// proxy is told of the members in moved, one host's or a coalesced set's
// (E16), and re-sends what they wait on.
func (p *Proxy) onUpdateLoc(newLoc ids.MSS, moved *aggstate.Set) {
	if moved == nil {
		p.currentLoc = newLoc
	} else {
		moved.ForEach(func(mh uint32) { p.group.locate(ids.MH(mh), newLoc, p.currentLoc) })
	}
	for i := range p.reqs {
		if p.reqs[i].HasResult {
			p.forwardResult(&p.reqs[i], moved)
		}
	}
}

// onAck processes a relayed Ack: the request is completed and removed
// from the requestList (§3.1). It reports whether the proxy must now be
// deleted (del-proxy piggybacked; §3.3).
//
// Fig. 4 rule: if after removal exactly one pending request remains and
// its result has already been forwarded, the proxy sends the special
// del-pref-only message for it so the respMss can arm RKpR.
//
// A group proxy is durable: neither rule applies to it.
func (p *Proxy) onAck(req ids.RequestID, delProxy bool) (deleted bool) {
	removed := p.removeReq(req)
	if p.group != nil {
		return false
	}
	if delProxy {
		if len(p.reqs) != 0 {
			// del-proxy may only be confirmed when no request is pending
			// (§3.3); a violation indicates a protocol bug.
			p.host.w.violate(violDelProxyPending, p.mh, p.id, req)
		}
		return true
	}
	if removed && len(p.reqs) == 1 {
		if sole := &p.reqs[0]; sole.HasResult && sole.Forwarded {
			p.host.sendToStation(p.currentLoc, msg.DelPrefOnly{Proxy: p.id, MH: p.mh, Req: sole.Req, Mark: p.mark, Inc: sole.Inc})
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
// record stays as the abort memo so a retry gets the same answer. A
// batch's members are the entries tagged with it, and a record lasts
// until its host's floor passes it.

// admitBatch is the one gate batch traffic passes (E17/E18): it returns
// the live record of batch id, opened on first contact (any open, member
// or commit may arrive first after a retry), or nil for a message the
// proxy refuses. Batch identifiers restart with the host's sequence
// counter, so inc is judged against the origin's floor first: an older
// incarnation is a ghost; a newer one is a rebooted host, whose dead
// batches go with their members. A higher floor, which only a BatchOpen
// carries, forgets the records below it. Below the floor the message is a
// replay; for an aborted batch it draws the abort again.
func (p *Proxy) admitBatch(id ids.BatchID, inc ids.Incarnation, floor uint32) *msg.ProxyBatch {
	f := p.floorOf(id.Origin, inc)
	if incLess(inc, f.Inc) {
		p.host.w.Stats.StaleIncarnationDrops.Inc()
		return nil
	}
	p.reborn(f, inc)
	if floor > f.Seq {
		p.forget(id.Origin, floor, true)
		f.Seq = floor
	}
	b := p.batch(id)
	switch {
	case id.Seq < f.Seq:
		return nil
	case b == nil:
		p.openBatch(msg.ProxyBatch{Batch: id, Inc: inc})
		p.host.w.Stats.BatchesOpened.Inc()
		return &p.batches[len(p.batches)-1]
	case b.Aborted:
		p.sendAbort(b)
		return nil
	}
	return b
}

// floorOf returns origin's floor record, made under incarnation inc on
// first contact.
func (p *Proxy) floorOf(origin ids.MH, inc ids.Incarnation) *msg.BatchFloor {
	i := slices.IndexFunc(p.floors, func(f msg.BatchFloor) bool { return f.MH == origin })
	if i < 0 {
		i = len(p.floors)
		p.floors = append(p.floors, msg.BatchFloor{MH: origin, Inc: normInc(inc)})
	}
	return &p.floors[i]
}

// reborn drops every batch of f's origin with its members once inc is
// newer than f's: the host rebooted, and its dead batches have no owner.
func (p *Proxy) reborn(f *msg.BatchFloor, inc ids.Incarnation) {
	if incLess(f.Inc, inc) {
		p.forget(f.MH, math.MaxUint32, false)
		f.Seq, f.Inc = 0, normInc(inc)
	}
}

// forget takes origin's batch records below seq off the proxy, and the
// entries they tag with them — except, when keep is set, a released
// batch's, which stay untagged for the Acks still due: their host has
// seen them.
func (p *Proxy) forget(origin ids.MH, seq uint32, keep bool) {
	gone := func(id ids.BatchID) bool { return id.Valid() && id.Origin == origin && id.Seq < seq }
	p.reqs = slices.DeleteFunc(p.reqs, func(r msg.ProxyReq) bool {
		return gone(r.Batch) && !(keep && p.batch(r.Batch).Released)
	})
	for i := range p.reqs {
		if gone(p.reqs[i].Batch) {
			p.reqs[i].Batch = ids.BatchID{}
		}
	}
	p.batches = slices.DeleteFunc(p.batches, func(b msg.ProxyBatch) bool { return gone(b.Batch) })
}

// openBatch appends a batch record and arms the deadline of a live,
// unreleased one.
func (p *Proxy) openBatch(b msg.ProxyBatch) {
	p.batches = append(p.batches, b)
	if !b.Released && !b.Aborted {
		p.armBatchDeadline(b)
	}
}

// onBatchItem registers one batch member and issues it to the server
// (or answers it from the cache).
func (p *Proxy) onBatchItem(m msg.BatchItem) {
	p.raise(m.Req, m.Inc)
	b := p.admitBatch(m.Batch, m.Inc, 0)
	if b == nil || b.Released || p.req(m.Req) != nil {
		// Refused; a late duplicate of an already-delivered batch, whose
		// members were forwarded (and possibly acked away) and must never
		// re-execute; or a duplicate member (retry): the first registration
		// wins.
		return
	}
	p.reqs = append(p.reqs, msg.ProxyReq{Req: m.Req, Server: m.Server, Payload: m.Payload, Batch: m.Batch, Inc: m.Inc})
	p.issue(&p.reqs[len(p.reqs)-1])
}

// onBatchCommit seals the member set. The commit's count is the
// completeness criterion: release waits until that many members are
// registered and all hold results.
func (p *Proxy) onBatchCommit(m msg.BatchCommit) {
	b := p.admitBatch(m.Batch, m.Inc, 0)
	if b == nil {
		return
	}
	if !b.Committed { // else a duplicate commit (retry): just re-check
		b.Committed, b.Expected = true, m.Count
		p.host.w.Stats.BatchesCommitted.Inc()
	}
	p.checkBatchRelease(b)
}

// checkBatchRelease releases the batch once it is committed, fully
// registered, and every member holds a result; then all members are
// forwarded in requestList order.
func (p *Proxy) checkBatchRelease(b *msg.ProxyBatch) {
	if b == nil || b.Released || b.Aborted || !b.Committed {
		return
	}
	var n uint32
	for i := range p.reqs {
		if p.reqs[i].Batch == b.Batch {
			if !p.reqs[i].HasResult {
				return
			}
			n++
		}
	}
	if n != b.Expected {
		return
	}
	b.Released = true
	for i := range p.reqs {
		if p.reqs[i].Batch == b.Batch {
			p.forwardResult(&p.reqs[i], nil)
		}
	}
}

// abortBatch drops every member, keeps the record as the abort memo, and
// notifies the MH. Exactly-once for aborted members means exactly-zero:
// the forwardResult gate guarantees none was ever delivered.
func (p *Proxy) abortBatch(b *msg.ProxyBatch) {
	p.reqs = slices.DeleteFunc(p.reqs, func(r msg.ProxyReq) bool { return r.Batch == b.Batch })
	b.Aborted = true
	p.host.w.Stats.BatchesAborted.Inc()
	p.sendAbort(b)
}

// sendAbort tells the batch's origin host, through its respMss, to
// abandon the members it issued in an aborted batch under the batch's
// incarnation.
func (p *Proxy) sendAbort(b *msg.ProxyBatch) {
	mh := b.Batch.Origin
	p.host.sendToStation(p.locOf(mh), msg.BatchAbort{Proxy: p.id, MH: mh, Batch: b.Batch, Inc: b.Inc})
}

// armBatchDeadline starts the abort timer of batch record b, which names
// it by origin, sequence and incarnation: it aborts that very record if it
// is still live, here, when the deadline passes. A restored or migrated
// batch is a new record that arms its own fresh, full deadline —
// conservative, but deadline precision across crashes and moves is not
// part of the atomicity contract.
func (p *Proxy) armBatchDeadline(b msg.ProxyBatch) {
	host := p.host
	if host.w.cfg.BatchDeadline <= 0 {
		return
	}
	host.after(host.w.cfg.BatchDeadline, stationTimer{kind: timerBatchDeadline, p: p,
		mh: b.Batch.Origin, epoch: uint64(b.Batch.Seq)<<32 | uint64(normInc(b.Inc))})
}

// batchDeadline aborts the batch record a deadline names if it is still
// live, here.
func (p *Proxy) batchDeadline(origin ids.MH, epoch uint64) {
	host := p.host
	b := p.batch(ids.BatchID{Origin: origin, Seq: uint32(epoch >> 32)})
	if host.proxyAt(p.id.Seq) == p && b != nil && uint32(normInc(b.Inc)) == uint32(epoch) && !b.Released && !b.Aborted {
		host.markSlot(p.id.Seq)
		p.abortBatch(b)
	}
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
// supersedes the one before (leaseEpoch). A group proxy holds no lease.
func (p *Proxy) armLease() {
	host := p.host
	ttl := host.w.cfg.LeaseTTL
	if ttl <= 0 || p.group != nil {
		return
	}
	p.leaseEpoch++
	host.after(ttl, stationTimer{kind: timerLease, p: p, epoch: p.leaseEpoch})
}

// leaseExpired ends arming epoch's lease unless a later arming superseded
// it.
func (p *Proxy) leaseExpired(epoch uint64) {
	if p.leaseEpoch == epoch {
		// No renewal for a full TTL: the host (and every incarnation up
		// to the last one vouched for) is presumed dead. reclaimProxy
		// does nothing for a proxy that is gone already.
		p.host.reclaimProxy(p)
	}
}

// renewLease processes one heartbeat. A newer incarnation than the one
// last vouched for means the host rebooted: state owned by older
// incarnations is scrubbed, and a proxy left with neither a request nor a
// live batch by the scrub is reclaimed on the spot (the pref at the
// respMss is dropped by the reclaim memo, so the next request builds a
// fresh proxy). A group proxy, holding no lease, takes no heartbeat.
func (p *Proxy) renewLease(inc ids.Incarnation) {
	if p.group != nil {
		p.host.w.Stats.OrphanMessages.Inc()
		return
	}
	p.host.w.Stats.LeaseHeartbeats.Inc()
	if incLess(p.leaseInc, inc) {
		p.scrubStale(inc)
		p.leaseInc = inc
		if len(p.reqs) == 0 && !slices.ContainsFunc(p.batches, liveBatch) {
			p.host.reclaimProxy(p)
			return
		}
	}
	p.armLease()
}

// liveBatch reports whether a batch record is a batch rather than an abort
// memo.
func liveBatch(b msg.ProxyBatch) bool { return !b.Aborted }

// scrubStale drops every request and batch owned by an incarnation older
// than inc. No abort or ack flows anywhere: the owner lost its memory of
// all of it, and the incarnation gates keep any replayed traffic from
// resurrecting it.
func (p *Proxy) scrubStale(inc ids.Incarnation) {
	for i := range p.floors {
		p.reborn(&p.floors[i], inc)
	}
	p.reqs = slices.DeleteFunc(p.reqs, func(r msg.ProxyReq) bool {
		if !incLess(r.Inc, inc) {
			return false
		}
		p.host.w.Stats.StaleIncarnationDrops.Inc()
		return true
	})
}

// --- The durable image -------------------------------------------------
//
// A proxy's durable state is one msg.MigState: identity, currentLoc, the
// requestList, the batches, abort memos and floors, the mark and the
// lease's incarnation.
// The journal keeps one per hosted proxy (flushJournal writes it, a restart
// revives it) and a migration ships one (migrateOut takes it, the adopting
// station revives it): one copy function each way, whichever path moves
// the proxy. A group proxy, which never migrates, adds its members,
// locations and waiters as a journal-only extension (proxyImage).

// image writes the proxy's image over dst, into the arrays dst already
// owns: a copy — its lists are dst's alone; payloads and results are
// shared, as nobody writes them — that allocates nothing once dst has
// reached the image's size. The tail a shrinking request list leaves is
// cleared, so dst never pins a removed request's payload.
func (p *Proxy) image(dst *msg.MigState) {
	reqs := dst.Reqs
	*dst = msg.MigState{Proxy: p.id, MH: p.mh, CurrentLoc: p.currentLoc, LeaseInc: p.leaseInc,
		Mark: p.mark, MarkInc: p.markInc,
		Reqs:    append(reqs[:0], p.reqs...),
		Batches: append(dst.Batches[:0], p.batches...),
		Floors:  append(dst.Floors[:0], p.floors...)}
	if len(dst.Reqs) < len(reqs) {
		clear(reqs[len(dst.Reqs):])
	}
}

// revive installs at n, under identity id, the proxy an image describes —
// the journal's after a restart, or a migration's on adoption — a group
// proxy when the journal's extension g comes with it. It clones out of
// the image, so whatever later writes over the image leaves the proxy
// alone, and arms what does not travel: a fresh, full deadline for every
// live unreleased batch — pre-crash timers died with the crash, pre-move
// ones stayed behind, and deadline precision across either is outside the
// atomicity contract — and a fresh lease. createdAt restarts now, so the
// station's ProxySeconds accounting starts over.
func (n *MSSNode) revive(id ids.ProxyID, st *msg.MigState, g *proxyGroup) *Proxy {
	p := newProxy(id, st.MH, n)
	p.currentLoc, p.leaseInc = st.CurrentLoc, st.LeaseInc
	p.mark, p.markInc = st.Mark, st.MarkInc
	p.reqs = append(p.reqs, st.Reqs...)
	p.group = g.clone()
	p.floors = slices.Clone(st.Floors)
	for _, b := range st.Batches {
		p.openBatch(b)
	}
	n.put(id.Seq, p)
	if p.group != nil {
		n.topicProxies[p.group.key] = id.Seq
	}
	p.armLease()
	return p
}
