package rdpcore

import (
	"cmp"
	"encoding/binary"
	"maps"
	"slices"

	"repro/internal/aggstate"
	"repro/internal/dcache"
	"repro/internal/ids"
	"repro/internal/msg"
)

// This file implements MSS crash/recovery. The paper assumes support
// stations never fail; E10 removes that assumption. Stations journal
// their protocol state — prefs with life-cycle flags (and so responsibility),
// forwarding pointers, the routed watermark, and the full requestList of
// every hosted proxy — to an in-sim stable store on every event that
// mutates them (one snapshot per entity written). A crash wipes the
// station's memory; a restart replays the journal and, after a grace
// period, re-issues whatever the journal shows incomplete.

// The journal stores value copies of the live types — a proxy's image
// (msg.MigState, which is also what a migration ships, and a group
// proxy's extension of it), tombstone, a host record's hostDurable — deep
// enough that later mutation of the live state cannot reach into stable
// storage. What a copy carries of the live type's volatile fields (a
// tombstone's host and timer epoch) is zeroed on the way in. The two
// images an ordinary event writes — a host's and a private proxy's — are
// written over the stored one, into the slices it already owns: still a
// deep copy (the store's backing arrays are the store's alone; a restart
// clones out of them), but a journal write allocates nothing once the
// image has reached its size. A group proxy's extension is copied anew.

// hostJournal is the journaled per-MH state of one station: the pref,
// kept outside the host table (holding one is being responsible for the
// host), and the record's durable half — routed and the registered
// incarnation it counts for among it.
type hostJournal struct {
	hasPref bool
	pref    msg.Pref
	hostDurable
}

// proxyImage is the journal's record of one hosted proxy: its image
// (Proxy.image) and, for a group proxy, a copy of the group — the
// extension only the journal keeps, as a group proxy never migrates.
type proxyImage struct {
	msg.MigState
	group *proxyGroup
}

// stationRecord is one station's journal.
type stationRecord struct {
	mhs     map[ids.MH]hostJournal
	proxies map[uint32]*proxyImage
	// tombstones journals the old-to-new identity map plus the servers
	// still owing a pref confirmation. A crash mid-migration must not lose
	// the redirect — the transferred proxy lives on at the new host, and
	// stale prefs keep addressing the old identity.
	tombstones map[uint32]tombstone
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

// sortedKeys returns m's keys in ascending order. Whatever arms timers
// or sends per entry of a map walks it this way: Go's randomized map
// order would shuffle kernel event sequence numbers and make runs
// diverge under the same seed. (slices.Sorted(maps.Keys(m)) once go.mod
// reaches 1.23.)
func sortedKeys[K comparable, V any](m map[K]V, cmp func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmp)
	return keys
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
			mhs:        make(map[ids.MH]hostJournal),
			proxies:    make(map[uint32]*proxyImage),
			tombstones: make(map[uint32]tombstone),
		}
		s.stations[id] = rec
	}
	return rec
}

// The journal is written at the event boundary. A station is entered by a
// message (process), by one of its own timers (after) or by a restart;
// inside, whatever writes a host record's durable half, a pref or what
// answers for a proxy-sequence slot does so through an accessor that
// marks the record or the slot (rec, setPref, adopt, forget; put, take,
// deliver, proxyFor); and on the way out flushJournal writes the current
// image of everything marked, once each.
// A crash strikes between events, so it cannot see a half-written one.

// markHost notes that the event wrote mh's journaled state.
func (n *MSSNode) markHost(mh ids.MH) {
	if n.w.cfg.Checkpoint && !slices.Contains(n.dirtyHosts, mh) {
		n.dirtyHosts = append(n.dirtyHosts, mh)
	}
}

// markSlot notes that the event wrote what answers for seq.
func (n *MSSNode) markSlot(seq uint32) {
	if n.w.cfg.Checkpoint && !slices.Contains(n.dirtySlots, seq) {
		n.dirtySlots = append(n.dirtySlots, seq)
	}
}

// flushJournal journals the marked host records and slots as they are
// now — one stable-store write each — and clears the marks. Then, the
// event being over, the proxies it retired go to the spare stock.
func (n *MSSNode) flushJournal() {
	defer n.stockRetired()
	if len(n.dirtyHosts)+len(n.dirtySlots) == 0 {
		return
	}
	rec := n.w.store.station(n.id)
	for _, mh := range n.dirtyHosts {
		// A snapshot with nothing left to remember erases the entry.
		if j := n.hostImage(mh); j.hasPref || j.departed() {
			rec.mhs[mh] = j
		} else {
			delete(rec.mhs, mh)
		}
	}
	for _, seq := range n.dirtySlots {
		// The image of what answers for the slot now replaces whatever the
		// journal had there; an empty slot (or a reservation, which is
		// volatile) leaves nothing.
		delete(rec.tombstones, seq)
		switch a := n.hosted[seq].(type) {
		case *Proxy:
			st := rec.proxies[seq]
			if st == nil {
				st = n.newImage()
				rec.proxies[seq] = st
			}
			a.image(&st.MigState)
			st.group = a.group.clone()
			continue // the stored record stays: it has just been written over
		case *tombstone:
			rec.tombstones[seq] = a.clone()
		}
		if st := rec.proxies[seq]; st != nil {
			n.spareImage(st)
			delete(rec.proxies, seq)
		}
	}
	n.w.store.writes += int64(len(n.dirtyHosts) + len(n.dirtySlots))
	n.dirtyHosts, n.dirtySlots = n.dirtyHosts[:0], n.dirtySlots[:0]
}

// newImage is the one constructor of a proxy's journal image: a record of
// the spare stock, or a new one.
func (n *MSSNode) newImage() *proxyImage {
	if st := pop(&n.spareImages); st != nil {
		return st
	}
	return new(proxyImage)
}

// spareImage stocks the image of an emptied slot, its request array
// cleared — or dropped, past spareReqs entries — and its batches dropped.
func (n *MSSNode) spareImage(st *proxyImage) {
	reqs := st.Reqs
	if cap(reqs) > spareReqs {
		reqs = nil
	}
	clear(reqs)
	*st = proxyImage{MigState: msg.MigState{Reqs: reqs[:0]}}
	push(&n.spareImages, st)
}

// hostImage is this station's complete journaled state for mh.
func (n *MSSNode) hostImage(mh ids.MH) hostJournal {
	j := hostJournal{hostDurable: n.peek(mh).hostDurable}
	j.pref, j.hasPref = n.prefs.get(mh)
	return j
}

// clone returns a deep copy of g, nil for nil: the journal's copy of a
// group proxy's extension, and a restart's copy back out of it.
func (g *proxyGroup) clone() *proxyGroup {
	if g == nil {
		return nil
	}
	c := &proxyGroup{key: g.key, members: *g.members.Clone(), memberLoc: maps.Clone(g.memberLoc),
		waiters: make(map[ids.RequestID]*waiterList, len(g.waiters))}
	for req, ws := range g.waiters {
		c.waiters[req] = &waiterList{list: slices.Clone(ws.list), unacked: ws.unacked,
			ackIdx: maps.Clone(ws.ackIdx), entrants: *ws.entrants.Clone()}
	}
	return c
}

// persistSeq journals the proxy sequence counter so a restarted station
// never reuses a proxy identifier. It is written where it is allocated
// (newSeq): one word, not the image of something an event marks.
func (n *MSSNode) persistSeq() {
	if !n.w.cfg.Checkpoint {
		return
	}
	n.w.store.station(n.id).nextSeq = n.nextProxySeq
	n.w.store.writes++
}

// persistReclaim appends one reclamation memo to the station's durable
// reclaim log (E18). Unlike the snapshots flushJournal writes, the log is
// append-only and checksummed per record, so a torn write surfaces as a
// truncation on replay instead of silent corruption.
func (n *MSSNode) persistReclaim(dest ids.MSS, memo msg.ReclaimMemo) {
	if !n.w.cfg.Checkpoint {
		return
	}
	rec := n.w.store.station(n.id)
	at := len(rec.reclaims)
	log, err := msg.AppendEncode(binary.BigEndian.AppendUint32(journalOpen(rec.reclaims), uint32(dest)), memo)
	if err != nil {
		return
	}
	journalSeal(log, at)
	rec.reclaims = log
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
	n.boot++ // voids every timer armed through after
	n.inbox = classInbox{}
	n.hosts, n.slab, n.spareTransients = make(map[ids.MH]*stationHost), nil, nil
	n.spareProxies, n.spareImages = nil, nil
	n.prefs = newPrefTable(n.w.cfg.AggregatedState)
	// The result cache is volatile by design (dcache doc): rebuilding it
	// empty costs recomputation, never correctness.
	n.cache = dcache.New(n.w.cfg.ResultCache)
	// Of the addressee table, proxies and tombstones are recoverable from
	// the journal. Inbound migration reservations are volatile, like a
	// proxy's offer-in-flight mark: the reserved sequence numbers were
	// persisted at allocation, so a post-restart mig_state still installs
	// under a unique identity, and a lost offer merely leaves the proxy
	// fixed until the next trigger. So are the signaling coalescing
	// buffers.
	n.hosted = make(map[uint32]addressee)
	n.nProxies, n.nReserved = 0, 0
	n.topicProxies = make(map[groupKey]uint32)
	n.aggLocBuf = make(map[ids.ProxyID]*aggstate.Set)
	n.aggAckBuf = make(map[ids.ProxyID]*groupAckBuf)
	n.aggLocArmed, n.aggAckArmed = false, false
	n.reclaims = nil
}

// restoreFromStore replays the journal into memory after a restart. It
// writes the tables directly or drops the marks: what was just read from
// the journal needs no writing back.
func (n *MSSNode) restoreFromStore() {
	rec := n.w.store.station(n.id)
	for mh, j := range rec.mhs {
		if j.hasPref { // and with it, responsibility for mh
			n.prefs.set(mh, j.pref)
		}
		if j.hostDurable != (hostDurable{}) {
			n.entry(mh).hostDurable = j.hostDurable
		}
	}
	if rec.nextSeq > n.nextProxySeq {
		n.nextProxySeq = rec.nextSeq
	}
	// Restoring arms timers (batch deadlines, leases, tombstone GC), hence
	// sorted key order.
	for _, seq := range sortedKeys(rec.proxies, cmp.Compare[uint32]) {
		st := rec.proxies[seq]
		n.revive(st.Proxy, &st.MigState, st.group)
	}
	for _, seq := range sortedKeys(rec.tombstones, cmp.Compare[uint32]) {
		t := rec.tombstones[seq].clone()
		t.host = n
		n.put(seq, &t)
		// A fully-confirmed tombstone restarts its quiet period; one still
		// awaiting confirms re-arms when the ARQ redelivers them.
		if len(t.pendingServers) == 0 {
			n.armTombstoneGC(&t)
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
	n.dirtySlots = n.dirtySlots[:0]
	// The heartbeat loop died with the crash; re-arm it.
	n.armLeaseBeat()
}

// recoveryResend runs after RecoveryGrace: for every restored proxy it
// re-issues the server request of each result-less entry (covers a
// reply lost with the crash when the backbone has no ARQ) and
// re-forwards each stored result to every member still waiting on it,
// one resend per entry; for every responsible MH whose proxy lives
// elsewhere it re-announces this station as the MH's location, prompting
// that proxy to re-send anything stranded.
// Iteration is sorted so recovery traffic is deterministic.
func (n *MSSNode) recoveryResend() {
	// Ascending sequence is private proxies first, then group proxies
	// (the shared bit is the top one).
	for _, seq := range sortedKeys(n.hosted, cmp.Compare[uint32]) {
		n.markSlot(seq) // re-forwarding and releasing write the forwarded and released flags
		p, ok := n.hosted[seq].(*Proxy)
		if !ok {
			continue
		}
		for i := range p.reqs {
			n.w.Stats.RecoveryResends.Inc()
			if r := &p.reqs[i]; r.HasResult {
				p.forwardResult(r, nil)
			} else {
				n.sendWired(r.Server.Node(), n.w.view(msg.ServerRequest{Proxy: p.id, Req: r.Req, Payload: r.Payload}.Leg()))
			}
		}
		// Re-judge every restored batch for release. (The forwardResult
		// calls above withheld any unreleased members.)
		for i := range p.batches {
			p.checkBatchRelease(&p.batches[i])
		}
	}
	n.prefs.forEachSorted(func(mh ids.MH, pref msg.Pref) {
		if pref.HasProxy() && pref.Proxy.Host != n.id {
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
