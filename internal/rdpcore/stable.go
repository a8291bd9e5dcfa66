package rdpcore

import (
	"encoding/binary"
	"sort"

	"repro/internal/aggstate"
	"repro/internal/dcache"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
)

// This file implements MSS crash/recovery. The paper assumes support
// stations never fail; E10 removes that assumption. Stations journal
// their protocol state — responsibility, prefs with life-cycle flags,
// forwarding pointers, outstanding-request routing knowledge, and the
// full requestList of every hosted proxy — to an in-sim stable store on
// every mutation (write-through snapshots per entity). A crash wipes
// the station's memory; a restart replays the journal and, after a
// grace period, re-issues whatever the journal shows incomplete.

// mhRecord is the journaled per-MH state of one station.
type mhRecord struct {
	responsible bool
	pref        msg.Pref
	hasPref     bool
	ignoreAcks  bool
	forwardTo   ids.MSS
	hasForward  bool
	// inc is the newest incarnation of the MH this station has
	// registered (E18); outstanding tags each admitted request with the
	// incarnation that issued it, so a restart can still scrub entries
	// orphaned by a pre-crash reboot of the host.
	inc         ids.Incarnation
	outstanding []outReq
}

// proxyReqRecord is one journaled requestList entry.
type proxyReqRecord struct {
	req       ids.RequestID
	server    ids.Server
	payload   []byte
	result    []byte
	hasResult bool
	forwarded bool
	batch     ids.BatchID
	inc       ids.Incarnation
}

// proxyBatchRecord is the journaled image of one atomic batch (E17).
type proxyBatchRecord struct {
	id        ids.BatchID
	members   []ids.RequestID
	expected  uint32
	committed bool
	released  bool
	inc       ids.Incarnation
}

// proxyAbortRecord journals a batch-abort memo: the decision to refuse
// a batch must survive the crash, or replayed batch traffic could be
// accepted (and delivered) after the MH was told to abandon it.
type proxyAbortRecord struct {
	id   ids.BatchID
	reqs []ids.RequestID
}

// proxyRecord is the journaled image of one hosted proxy.
type proxyRecord struct {
	id         ids.ProxyID
	mh         ids.MH
	currentLoc ids.MSS
	reqs       []proxyReqRecord   // insertion order
	batches    []proxyBatchRecord // batchOrder
	aborted    []proxyAbortRecord // abortOrder
	// leaseInc is the newest MH incarnation a lease heartbeat has
	// vouched for (E18); the lease clock itself restarts on recovery.
	leaseInc ids.Incarnation
}

// groupWaiterRecord journals one member subscription of a shared entry
// (E16).
type groupWaiterRecord struct {
	mh        ids.MH
	seq       uint32
	inc       ids.Incarnation
	acked     bool
	forwarded bool
}

// groupEntryRecord journals one shared entry of a group proxy.
type groupEntryRecord struct {
	server    ids.Server
	payload   []byte
	leaderReq ids.RequestID
	result    []byte
	hasResult bool
	waiters   []groupWaiterRecord
}

// groupRecord is the journaled image of one shared group proxy (E16):
// identity, the delta-encoded member set, the location exceptions, and
// every in-flight entry. Group proxies journal whole images like
// per-request proxies do; the snapshot is O(members) bytes, but group
// membership mutates far less often than it is read.
type groupRecord struct {
	id        ids.ProxyID
	server    ids.Server
	topic     uint32
	members   []byte // aggstate delta encoding
	memberLoc map[ids.MH]ids.MSS
	entries   []groupEntryRecord // entryOrder
}

// tombstoneRecord is the journaled image of a migration tombstone: the
// old-to-new identity map plus the servers still owing a pref
// confirmation. A crash mid-migration must not lose the redirect — the
// transferred proxy lives on at the new host, and stale prefs keep
// addressing the old identity.
type tombstoneRecord struct {
	oldProxy       ids.ProxyID
	newProxy       ids.ProxyID
	mh             ids.MH
	pendingServers map[ids.Server]bool
}

// stationRecord is one station's journal.
type stationRecord struct {
	mhs        map[ids.MH]*mhRecord
	proxies    map[uint32]*proxyRecord
	groups     map[uint32]*groupRecord
	tombstones map[uint32]*tombstoneRecord
	nextSeq    uint32
	// reclaims is a checksummed record log (journal.go) of proxy
	// reclamation memos (E18): each record is a u32 destination MSS
	// followed by the wire encoding of the ReclaimMemo. The memo must
	// survive a crash of the reclaiming host, or the preference that
	// pointed at the reclaimed proxy could dangle forever.
	reclaims []byte
}

// stableStore is the world's stable storage: per-station journals that
// survive crashes by construction (the store lives in the World, not in
// the stations).
type stableStore struct {
	stations map[ids.MSS]*stationRecord
	// offline journals each disconnected MH's offline request queue
	// (E17) as a checksummed record log of wire-encoded messages; see
	// World.persistOffline.
	offline map[ids.MH][]byte
	writes  int64
}

func newStableStore() *stableStore {
	return &stableStore{
		stations: make(map[ids.MSS]*stationRecord),
		offline:  make(map[ids.MH][]byte),
	}
}

func (s *stableStore) station(id ids.MSS) *stationRecord {
	rec := s.stations[id]
	if rec == nil {
		rec = &stationRecord{
			mhs:        make(map[ids.MH]*mhRecord),
			proxies:    make(map[uint32]*proxyRecord),
			groups:     make(map[uint32]*groupRecord),
			tombstones: make(map[uint32]*tombstoneRecord),
		}
		s.stations[id] = rec
	}
	return rec
}

// persistMH journals this station's complete per-MH state for mh. Call
// it after any mutation of localMhs/prefs/ignoreAcks/forwardTo/
// outstanding for that MH; a snapshot with nothing left to remember
// erases the record.
func (n *MSSNode) persistMH(mh ids.MH) {
	if !n.w.cfg.Checkpoint {
		return
	}
	rec := n.w.store.station(n.id)
	r := &mhRecord{
		responsible: n.localMhs.contains(mh),
		ignoreAcks:  n.ignoreAcks[mh],
	}
	if p, ok := n.prefs.get(mh); ok {
		r.pref, r.hasPref = p, true
	}
	if f, ok := n.forwardTo[mh]; ok {
		r.forwardTo, r.hasForward = f, true
	}
	r.inc = n.incs[mh]
	if set := n.outstanding[mh]; len(set) > 0 {
		r.outstanding = append([]outReq(nil), set...)
	}
	if !r.responsible && !r.hasPref && !r.ignoreAcks && !r.hasForward {
		delete(rec.mhs, mh)
	} else {
		rec.mhs[mh] = r
	}
	n.w.store.writes++
}

// persistProxy journals the full image of a hosted proxy. Call it after
// any requestList or currentLoc mutation.
func (n *MSSNode) persistProxy(p *Proxy) {
	if !n.w.cfg.Checkpoint {
		return
	}
	rec := n.w.store.station(n.id)
	pr := &proxyRecord{id: p.id, mh: p.mh, currentLoc: p.currentLoc, leaseInc: p.leaseInc}
	for _, r := range p.reqs {
		pr.reqs = append(pr.reqs, proxyReqRecord{
			req: r.id, server: r.server, payload: r.payload,
			result: r.result, hasResult: r.hasResult, forwarded: r.forwarded,
			batch: r.batch, inc: r.inc,
		})
	}
	for _, id := range p.batchOrder {
		b := p.batches[id]
		pr.batches = append(pr.batches, proxyBatchRecord{
			id: b.id, members: append([]ids.RequestID(nil), b.members...),
			expected: b.expected, committed: b.committed, released: b.released,
			inc: b.inc,
		})
	}
	for _, id := range p.abortOrder {
		pr.aborted = append(pr.aborted, proxyAbortRecord{
			id: id, reqs: append([]ids.RequestID(nil), p.abortedBatches[id]...),
		})
	}
	rec.proxies[p.id.Seq] = pr
	n.w.store.writes++
}

// persistGroup journals the full image of a hosted group proxy (E16).
// Call it after any membership, location or entry mutation. Groups are
// never deleted, so there is no unpersist counterpart.
func (n *MSSNode) persistGroup(g *GroupProxy) {
	if !n.w.cfg.Checkpoint {
		return
	}
	rec := n.w.store.station(n.id)
	gr := &groupRecord{
		id:      g.id,
		server:  g.server,
		topic:   g.topic,
		members: g.members.AppendDelta(nil),
	}
	if len(g.memberLoc) > 0 {
		gr.memberLoc = make(map[ids.MH]ids.MSS, len(g.memberLoc))
		for mh, loc := range g.memberLoc {
			gr.memberLoc[mh] = loc
		}
	}
	for _, key := range g.entryOrder {
		e := g.entries[key]
		er := groupEntryRecord{
			server: e.server, payload: e.payload, leaderReq: e.leaderReq,
			result: e.result, hasResult: e.hasResult,
		}
		for _, w := range e.waiters {
			er.waiters = append(er.waiters, groupWaiterRecord{
				mh: w.mh, seq: w.seq, inc: w.inc, acked: w.acked, forwarded: w.forwarded,
			})
		}
		gr.entries = append(gr.entries, er)
	}
	rec.groups[g.id.Seq] = gr
	n.w.store.writes++
}

// unpersistProxy erases a deleted proxy's journal entry.
func (n *MSSNode) unpersistProxy(seq uint32) {
	if !n.w.cfg.Checkpoint {
		return
	}
	delete(n.w.store.station(n.id).proxies, seq)
	n.w.store.writes++
}

// persistTombstone journals a migration tombstone's current state. Call
// it when the tombstone is created and whenever its confirmation set
// shrinks.
func (n *MSSNode) persistTombstone(t *tombstone) {
	if !n.w.cfg.Checkpoint {
		return
	}
	tr := &tombstoneRecord{
		oldProxy:       t.oldProxy,
		newProxy:       t.newProxy,
		mh:             t.mh,
		pendingServers: make(map[ids.Server]bool, len(t.pendingServers)),
	}
	for s := range t.pendingServers {
		tr.pendingServers[s] = true
	}
	n.w.store.station(n.id).tombstones[t.oldProxy.Seq] = tr
	n.w.store.writes++
}

// unpersistTombstone erases a garbage-collected tombstone's journal
// entry.
func (n *MSSNode) unpersistTombstone(seq uint32) {
	if !n.w.cfg.Checkpoint {
		return
	}
	delete(n.w.store.station(n.id).tombstones, seq)
	n.w.store.writes++
}

// persistSeq journals the proxy sequence counter so a restarted station
// never reuses a proxy identifier.
func (n *MSSNode) persistSeq() {
	if !n.w.cfg.Checkpoint {
		return
	}
	n.w.store.station(n.id).nextSeq = n.nextProxySeq
	n.w.store.writes++
}

// persistReclaim appends one reclamation memo to the station's durable
// reclaim log (E18). Unlike the snapshot journals above, the log is
// append-only and checksummed per record, so a torn write surfaces as a
// truncation on replay instead of silent corruption.
func (n *MSSNode) persistReclaim(dest ids.MSS, memo msg.ReclaimMemo) {
	if !n.w.cfg.Checkpoint {
		return
	}
	enc, err := msg.Encode(memo)
	if err != nil {
		return
	}
	body := make([]byte, 4, 4+len(enc))
	binary.BigEndian.PutUint32(body, uint32(dest))
	body = append(body, enc...)
	rec := n.w.store.station(n.id)
	rec.reclaims = journalAppend(rec.reclaims, body)
	n.w.store.writes++
}

// crash wipes the station's memory. Volatile state — message queues,
// pending hand-offs and parked deregs, held results, deferred-update
// bookkeeping — is gone in every configuration; the protocol state is
// gone too, but recoverable from the journal when Checkpoint is on.
// nextProxySeq deliberately survives (a monotonic boot counter): reusing
// a proxy identifier after an amnesiac restart would alias stale prefs
// elsewhere onto a fresh proxy.
func (n *MSSNode) crash() {
	n.inbox = classInbox{}
	n.arriving = make(map[ids.MH]*arrival)
	n.pendingDeregs = make(map[ids.MH][]inboxItem)
	n.held = make(map[ids.MH][]msg.ResultDeliver)
	n.heldAcksPending = make(map[ids.MH]map[ids.RequestID]bool)
	n.deferredUpdate = make(map[ids.MH]bool)
	n.lastAttempt = make(map[ids.MH]sim.Time)
	n.reqAttempt = make(map[ids.RequestID]sim.Time)
	// The result cache is volatile by design (dcache doc): rebuilding it
	// empty costs recomputation, never correctness. batchEpochSeq is NOT
	// reset — it invalidates batch-deadline timers armed before the crash.
	n.cache = dcache.New(n.w.cfg.ResultCache)
	n.localMhs = newHostSet(n.w.cfg.AggregatedState)
	n.prefs = newPrefTable(n.w.cfg.AggregatedState)
	// Group proxies are recoverable from the journal; the signaling
	// coalescing buffers are volatile (a stale flush timer finds empty
	// buffers and does nothing).
	n.groupProxies = make(map[uint32]*GroupProxy)
	n.topicProxies = make(map[groupKey]uint32)
	n.aggLocBuf = make(map[ids.ProxyID]*aggstate.Set)
	n.aggAckBuf = make(map[ids.ProxyID]*groupAckBuf)
	n.aggLocArmed, n.aggAckArmed = false, false
	n.incs = make(map[ids.MH]ids.Incarnation)
	n.outstanding = make(map[ids.MH][]outReq)
	n.proxies = make(map[uint32]*Proxy)
	n.ignoreAcks = make(map[ids.MH]bool)
	n.forwardTo = make(map[ids.MH]ids.MSS)
	n.reclaims = nil
	// Migration state: tombstones are recoverable from the journal;
	// inbound reservations and outbound-offer clocks are volatile (the
	// reserved sequence numbers were persisted at allocation, so a
	// post-restart mig_state still installs under a unique identity, and
	// a lost offer merely leaves the proxy fixed until the next trigger).
	n.tombstones = make(map[uint32]*tombstone)
	n.migInbound = make(map[uint32]*migReservation)
	n.migOutbound = make(map[uint32]sim.Time)
}

// restoreFromStore replays the journal into memory after a restart.
func (n *MSSNode) restoreFromStore() {
	rec := n.w.store.station(n.id)
	for mh, r := range rec.mhs {
		if r.responsible {
			n.localMhs.add(mh)
		}
		if r.hasPref {
			n.prefs.set(mh, r.pref)
		}
		if r.ignoreAcks {
			n.ignoreAcks[mh] = true
		}
		if r.hasForward {
			n.forwardTo[mh] = r.forwardTo
		}
		if r.inc > ids.FirstIncarnation {
			n.incs[mh] = r.inc
		}
		if len(r.outstanding) > 0 {
			n.outstanding[mh] = append([]outReq(nil), r.outstanding...)
		}
	}
	if rec.nextSeq > n.nextProxySeq {
		n.nextProxySeq = rec.nextSeq
	}
	// Journal maps are iterated in sorted key order: restoring arms
	// timers (tombstone GC below), and arming them in Go's randomized
	// map order would shuffle kernel event sequence numbers, making
	// post-crash runs diverge under the same seed.
	proxySeqs := make([]int, 0, len(rec.proxies))
	for seq := range rec.proxies {
		proxySeqs = append(proxySeqs, int(seq))
	}
	sort.Ints(proxySeqs)
	for _, s := range proxySeqs {
		seq, pr := uint32(s), rec.proxies[uint32(s)]
		// createdAt restarts at the restart instant; the station's
		// ProxySeconds accounting loses the pre-crash span.
		p := newProxy(pr.id, pr.mh, n)
		p.currentLoc = pr.currentLoc
		p.leaseInc = pr.leaseInc
		for _, rr := range pr.reqs {
			p.reqs.add(&proxyReq{
				id: rr.req, server: rr.server, payload: rr.payload,
				result: rr.result, hasResult: rr.hasResult, forwarded: rr.forwarded,
				batch: rr.batch, inc: rr.inc,
			})
		}
		for _, br := range pr.batches {
			b := &proxyBatch{
				id: br.id, members: append([]ids.RequestID(nil), br.members...),
				expected: br.expected, committed: br.committed, released: br.released,
				inc: br.inc,
			}
			setLazy(&p.batches, b.id, b)
			p.batchOrder = append(p.batchOrder, b.id)
			if !b.released {
				// A fresh, full deadline per incarnation: pre-crash timers
				// are invalidated by the epoch guard, and deadline
				// precision across crashes is outside the atomicity
				// contract.
				p.armBatchDeadline(b)
			}
		}
		for _, ar := range pr.aborted {
			setLazy(&p.abortedBatches, ar.id, append([]ids.RequestID(nil), ar.reqs...))
			p.abortOrder = append(p.abortOrder, ar.id)
		}
		n.proxies[seq] = p
		// The lease clock restarts with a fresh, full TTL: pre-crash
		// expiry timers are invalidated by the epoch guard, and the next
		// heartbeat renews the lease anyway.
		p.armLease()
	}
	groupSeqs := make([]int, 0, len(rec.groups))
	for seq := range rec.groups {
		groupSeqs = append(groupSeqs, int(seq))
	}
	sort.Ints(groupSeqs)
	for _, s := range groupSeqs {
		seq, gr := uint32(s), rec.groups[uint32(s)]
		g := &GroupProxy{
			id:        gr.id,
			host:      n,
			server:    gr.server,
			topic:     gr.topic,
			memberLoc: make(map[ids.MH]ids.MSS, len(gr.memberLoc)),
			entries:   make(map[dcache.Key]*sharedEntry),
			createdAt: n.w.Kernel.Now(),
		}
		if set, err := aggstate.DecodeDelta(gr.members); err == nil {
			g.members = *set
		}
		for mh, loc := range gr.memberLoc {
			g.memberLoc[mh] = loc
		}
		for _, er := range gr.entries {
			e := &sharedEntry{
				server: er.server, payload: er.payload, leaderReq: er.leaderReq,
				result: er.result, hasResult: er.hasResult,
			}
			for _, wr := range er.waiters {
				e.entrants.Add(uint32(wr.mh))
				if !wr.acked {
					e.unacked++
				}
				e.waiters = append(e.waiters, sharedWaiter{
					mh: wr.mh, seq: wr.seq, inc: wr.inc, acked: wr.acked, forwarded: wr.forwarded,
				})
			}
			if e.hasResult {
				e.ackIdx = make(map[waiterKey]int, len(e.waiters))
				for i := range e.waiters {
					e.ackIdx[waiterKey{mh: e.waiters[i].mh, seq: e.waiters[i].seq}] = i
				}
			}
			key := dcache.Key{Server: er.server, Digest: dcache.Digest(er.payload)}
			g.entries[key] = e
			g.entryOrder = append(g.entryOrder, key)
		}
		n.groupProxies[seq] = g
		n.topicProxies[groupKey{server: gr.server, topic: gr.topic}] = seq
	}
	tombSeqs := make([]int, 0, len(rec.tombstones))
	for seq := range rec.tombstones {
		tombSeqs = append(tombSeqs, int(seq))
	}
	sort.Ints(tombSeqs)
	for _, s := range tombSeqs {
		seq, tr := uint32(s), rec.tombstones[uint32(s)]
		t := &tombstone{
			oldProxy:       tr.oldProxy,
			newProxy:       tr.newProxy,
			mh:             tr.mh,
			pendingServers: make(map[ids.Server]bool, len(tr.pendingServers)),
		}
		for s := range tr.pendingServers {
			t.pendingServers[s] = true
		}
		n.tombstones[seq] = t
		// A fully-confirmed tombstone restarts its quiet period; one still
		// awaiting confirms re-arms when the ARQ redelivers them.
		if len(t.pendingServers) == 0 {
			n.armTombstoneGC(t)
		}
	}
	// Replay the durable reclaim log (E18). The scan verifies each
	// record's checksum and truncates at the first corrupt one; whatever
	// survives is re-sent by recoveryResend below.
	if raw := rec.reclaims; len(raw) > 0 {
		records, truncated := journalScan(raw)
		if truncated {
			n.w.Stats.JournalTruncations.Inc()
			// Rewrite the log as its verified prefix so the corrupt tail
			// is not re-scanned (and re-counted) on the next restart.
			clean := []byte(nil)
			for _, body := range records {
				clean = journalAppend(clean, body)
			}
			rec.reclaims = clean
		}
		for _, body := range records {
			if len(body) < 4 {
				continue
			}
			dest := ids.MSS(binary.BigEndian.Uint32(body[:4]))
			m, err := msg.Decode(body[4:])
			if err != nil {
				continue
			}
			if memo, ok := m.(msg.ReclaimMemo); ok {
				n.reclaims = append(n.reclaims, reclaimRecord{dest: dest, memo: memo})
			}
		}
	}
	// The heartbeat loop died with the crash; re-arm it.
	n.armLeaseBeat()
}

// recoveryResend runs after RecoveryGrace: for every restored proxy it
// re-issues the server request of each result-less entry (covers a
// reply lost with the crash when the backbone has no ARQ) and
// re-forwards each stored, still-unacked result; for every responsible
// MH whose proxy lives elsewhere it re-announces this station as the
// MH's location, prompting that proxy to re-send anything stranded.
// Iteration is sorted so recovery traffic is deterministic.
func (n *MSSNode) recoveryResend() {
	seqs := make([]int, 0, len(n.proxies))
	for seq := range n.proxies {
		seqs = append(seqs, int(seq))
	}
	sort.Ints(seqs)
	for _, seq := range seqs {
		p := n.proxies[uint32(seq)]
		for _, r := range p.reqs {
			n.w.Stats.RecoveryResends.Inc()
			if r.hasResult {
				p.forwardResult(r)
			} else {
				n.sendWired(r.server.Node(), msg.ServerRequest{Proxy: p.id, Req: r.id, Payload: r.payload})
			}
		}
		// A crash can land between the journal write that completed a
		// batch's last member and the one that recorded its release;
		// re-judge every restored batch. (The forwardResult calls above
		// withheld any unreleased members.)
		for _, id := range p.batchOrder {
			p.checkBatchRelease(p.batches[id])
		}
	}
	// Restored group proxies (E16): re-issue the server request of every
	// result-less entry and re-fan-out every stored, still-unacked
	// result — the group analogue of the per-proxy loop above.
	gseqs := make([]int, 0, len(n.groupProxies))
	for seq := range n.groupProxies {
		gseqs = append(gseqs, int(seq))
	}
	sort.Ints(gseqs)
	for _, s := range gseqs {
		g := n.groupProxies[uint32(s)]
		for _, key := range g.entryOrder {
			e := g.entries[key]
			if !e.hasResult {
				n.w.Stats.RecoveryResends.Inc()
				n.sendWired(e.server.Node(),
					msg.ServerRequest{Proxy: g.id, Req: e.leaderReq, Payload: e.payload})
				continue
			}
			for i := range e.waiters {
				if !e.waiters[i].acked {
					n.w.Stats.RecoveryResends.Inc()
					g.forward(e, i)
				}
			}
		}
	}
	n.localMhs.forEach(func(mh ids.MH) {
		pref, ok := n.prefs.get(mh)
		if ok && pref.HasProxy() && pref.Proxy.Host != n.id {
			n.w.Stats.RecoveryResends.Inc()
			n.announceLoc(pref.Proxy, mh)
		}
	})
	// Re-send every journaled reclamation memo (E18): the crash may have
	// landed between the journal write and the wire send, and the memo
	// is idempotent at the receiver.
	for _, rr := range n.reclaims {
		n.w.Stats.RecoveryResends.Inc()
		n.sendToStation(rr.dest, rr.memo)
	}
}
