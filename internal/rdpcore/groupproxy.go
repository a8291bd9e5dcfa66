package rdpcore

import (
	"cmp"

	"repro/internal/aggstate"
	"repro/internal/dcache"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
)

// This file implements shared group proxies, the fan-out half of the
// aggregated-location-state optimization (E16). The paper's proxy is
// strictly per-host: a cell of 10k subscribers asking one server the
// same question builds 10k proxies, 10k server round-trips, and 10k
// independent pref/location records. When the deployment can classify
// requests into topics (Config.GroupTopic), all subscribers of a
// (server, topic) pair in a cell share ONE group proxy: one server
// request per distinct payload, one pref value for the whole
// population (which the prefTable then stores as a single aggregate
// record), and hand-off signaling batched into per-group messages
// carrying delta-encoded member sets.
//
// Group proxies are durable cell infrastructure, not per-request
// state: they are never deleted by the §3.3 RKpR machinery, never
// offered for migration, and hold no incarnation lease (each member's
// forward still carries — and is gated by — that member's own
// incarnation). Their member sets are append-only: membership is
// lazily correct, in that a departed member costs its bits in the set
// and a possible wasted forward, but never a per-member bookkeeping
// map, which is exactly the O(hosts) cost this representation removes.

// sharedProxyBit marks a ProxyID.Seq as naming a group proxy. The bit
// rides inside the existing identifier space so every message, pref and
// stable-store record that carries a ProxyID works unchanged, and a group
// proxy takes a slot of the station's one addressee table like any other
// identity; the respMss reads the bit off a pref where shared prefs follow
// other rules (no lease, no §3.3 removal, coalesced signaling).
const sharedProxyBit = uint32(1) << 31

// isSharedProxy reports whether id names a shared group proxy.
func isSharedProxy(id ids.ProxyID) bool { return id.Seq&sharedProxyBit != 0 }

// groupKey indexes a cell's group proxies by what they serve.
type groupKey struct {
	server ids.Server
	topic  uint32
}

// waiterKey identifies one member request inside a shared entry: the
// member's RequestID re-expressed without the redundant origin.
type waiterKey struct {
	mh  ids.MH
	seq uint32
}

// sharedWaiter is one member subscribed to a shared entry: 16 bytes of
// steady state per waiting request, against the faithful ~300+ bytes of
// proxy + requestList entry.
type sharedWaiter struct {
	mh        ids.MH
	seq       uint32
	inc       ids.Incarnation
	acked     bool
	forwarded bool
}

// sharedEntry is one distinct in-flight request payload of a group:
// the single server round-trip and the waiters it will fan out to.
type sharedEntry struct {
	server    ids.Server
	payload   []byte
	leaderReq ids.RequestID // the first joiner's id; names the server exchange
	result    []byte
	hasResult bool
	unacked   int
	waiters   []sharedWaiter
	// ackIdx maps (mh, seq) to the waiter index. Built lazily when the
	// result arrives (acks can only follow forwards) and freed with the
	// entry, so steady-state subscription memory stays at the 16-byte
	// waiter records.
	ackIdx map[waiterKey]int
	// entrants guards duplicate joins: the common path (new member) is
	// one O(log n) set insert; only a repeated member pays the linear
	// waiter scan to distinguish a retry from a new request.
	entrants aggstate.Set
}

// GroupProxy is the shared proxy of one (server, topic) pair in one
// cell. Like Proxy it lives inside its hosting MSSNode.
type GroupProxy struct {
	id     ids.ProxyID
	host   *MSSNode
	server ids.Server
	topic  uint32

	// members is the append-only subscriber population (see file
	// comment); memberLoc records only the members whose current respMss
	// is NOT the hosting station — in the common case (subscribers in
	// the group's own cell) it stays empty.
	members   aggstate.Set
	memberLoc map[ids.MH]ids.MSS

	entries    map[dcache.Key]*sharedEntry
	entryOrder []dcache.Key // insertion order; keeps iteration deterministic
	createdAt  sim.Time
}

// sharedGroupFor returns the group proxy serving (server, payload) in
// this cell, creating it on first use — or nil when aggregation is off
// or the deployment's topic classifier declines the request.
func (n *MSSNode) sharedGroupFor(server ids.Server, payload []byte) *GroupProxy {
	if !n.w.cfg.AggregatedState || n.w.cfg.GroupTopic == nil || !server.Valid() {
		return nil
	}
	topic, ok := n.w.cfg.GroupTopic(server, payload)
	if !ok {
		return nil
	}
	key := groupKey{server: server, topic: topic}
	if seq, ok := n.topicProxies[key]; ok {
		return n.hosted[seq].(*GroupProxy)
	}
	// Group proxies draw from the same persistent sequence counter as
	// per-request proxies, so identifiers stay unique across crashes.
	id := ids.ProxyID{Host: n.id, Seq: sharedProxyBit | n.newSeq()}
	g := &GroupProxy{
		id:        id,
		host:      n,
		server:    server,
		topic:     topic,
		memberLoc: make(map[ids.MH]ids.MSS),
		entries:   make(map[dcache.Key]*sharedEntry),
		createdAt: n.w.Kernel.Now(),
	}
	n.put(id.Seq, g)
	n.topicProxies[key] = id.Seq
	n.w.Stats.SharedProxies.Inc()
	return g
}

// ID returns the group proxy identifier.
func (g *GroupProxy) ID() ids.ProxyID { return g.id }

// Members returns the subscriber population size (append-only; see
// file comment).
func (g *GroupProxy) Members() int { return g.members.Len() }

// join subscribes mh (whose current respMss is loc) to the entry for
// (server, payload), creating the entry — and its single server
// round-trip — on first subscription.
func (g *GroupProxy) join(mh ids.MH, loc ids.MSS, req ids.RequestID, server ids.Server, payload []byte, inc ids.Incarnation) {
	g.members.Add(uint32(mh))
	if loc == g.host.id {
		delete(g.memberLoc, mh)
	} else {
		g.memberLoc[mh] = loc
	}
	g.host.w.Stats.SharedJoins.Inc()
	key := dcache.Key{Server: server, Digest: dcache.Digest(payload)}
	e := g.entries[key]
	if e == nil {
		e = &sharedEntry{server: server, payload: payload, leaderReq: req}
		g.entries[key] = e
		g.entryOrder = append(g.entryOrder, key)
		if result, ok := g.host.cacheLookup(server, payload); ok {
			e.result, e.hasResult = result, true
		} else {
			g.host.sendWired(server.Node(),
				g.host.w.view(msg.ServerRequest{Proxy: g.id, Req: req, Payload: payload}.Leg()))
		}
	} else if !e.entrants.Contains(uint32(mh)) {
		// fresh member of an existing entry: falls through to append
	} else if i := e.waiterIndex(mh, req.Seq); i >= 0 {
		// Same (mh, seq): a retry. Incarnation arbitration mirrors
		// Proxy.addRequest — older is a ghost, newer reuses the
		// identifier for a brand-new request of the reborn host.
		w := &e.waiters[i]
		if incLess(inc, w.inc) {
			g.host.w.Stats.StaleIncarnationDrops.Inc()
			return
		}
		if incLess(w.inc, inc) {
			w.inc = inc
			if w.acked {
				w.acked = false
				e.unacked++
			}
			w.forwarded = false
		}
		if e.hasResult && !w.acked {
			g.forward(e, i)
		}
		return
	}
	e.entrants.Add(uint32(mh))
	e.waiters = append(e.waiters, sharedWaiter{mh: mh, seq: req.Seq, inc: inc})
	e.unacked++
	i := len(e.waiters) - 1
	if e.ackIdx != nil {
		e.ackIdx[waiterKey{mh: mh, seq: req.Seq}] = i
	}
	if e.hasResult {
		g.forward(e, i)
	}
}

// waiterIndex finds the waiter for (mh, seq), or -1. Only reached on
// the duplicate-join path (entrants already contains mh).
func (e *sharedEntry) waiterIndex(mh ids.MH, seq uint32) int {
	if e.ackIdx != nil {
		if i, ok := e.ackIdx[waiterKey{mh: mh, seq: seq}]; ok {
			return i
		}
		return -1
	}
	for i := range e.waiters {
		if e.waiters[i].mh == mh && e.waiters[i].seq == seq {
			return i
		}
	}
	return -1
}

// indexAcks builds ackIdx over the current waiters.
func (e *sharedEntry) indexAcks() {
	e.ackIdx = make(map[waiterKey]int, len(e.waiters))
	for i, w := range e.waiters {
		e.ackIdx[waiterKey{mh: w.mh, seq: w.seq}] = i
	}
}

// forward sends the entry's result to one waiter's current respMss.
// DelPref never rides along: shared prefs are permanent (file comment).
func (g *GroupProxy) forward(e *sharedEntry, i int) {
	w := &e.waiters[i]
	if w.forwarded {
		g.host.w.Stats.Retransmissions.Inc()
	}
	w.forwarded = true
	loc, ok := g.memberLoc[w.mh]
	if !ok {
		loc = g.host.id
	}
	g.host.w.Stats.GroupFanouts.Inc()
	g.host.w.Stats.ResultForwards[g.host.id]++
	g.host.sendToStation(loc, g.host.w.view(msg.ResultForward{
		Proxy:   g.id,
		MH:      w.mh,
		Req:     ids.RequestID{Origin: w.mh, Seq: w.seq},
		Payload: e.result,
		Inc:     w.inc,
	}.Leg()))
}

// onServerResult stores the single server reply and fans it out to
// every waiting member.
func (g *GroupProxy) onServerResult(req ids.RequestID, payload []byte) {
	var e *sharedEntry
	for _, key := range g.entryOrder {
		if cand := g.entries[key]; cand != nil && cand.leaderReq == req {
			e = cand
			break
		}
	}
	if e == nil {
		g.host.w.Stats.OrphanMessages.Inc()
		return
	}
	if e.hasResult {
		return // duplicate server reply; the stored copy wins
	}
	e.result = payload
	e.hasResult = true
	g.host.cacheStore(e.server, e.payload, payload)
	e.indexAcks()
	for i := range e.waiters {
		if !e.waiters[i].acked {
			g.forward(e, i)
		}
	}
}

// ack completes one member's request; the entry is retired when the
// last member has acknowledged.
func (g *GroupProxy) ack(mh ids.MH, seq uint32) {
	for _, key := range g.entryOrder {
		e := g.entries[key]
		if e == nil || e.ackIdx == nil {
			continue
		}
		i, ok := e.ackIdx[waiterKey{mh: mh, seq: seq}]
		if !ok {
			continue
		}
		if e.waiters[i].acked {
			return // duplicate ack; ignore like Proxy.onAck
		}
		e.waiters[i].acked = true
		e.unacked--
		if e.unacked == 0 {
			g.completeEntry(key)
		}
		return
	}
	// Ack for an already-retired entry (duplicate after completion).
}

// completeEntry retires a fully-acknowledged entry, freeing its result,
// waiters, ack index and entrants guard in one delete.
func (g *GroupProxy) completeEntry(key dcache.Key) {
	delete(g.entries, key)
	for i, k := range g.entryOrder {
		if k == key {
			g.entryOrder = append(g.entryOrder[:i], g.entryOrder[i+1:]...)
			break
		}
	}
}

// updateLoc applies a (possibly coalesced) hand-off notification: every
// member in moved now sits at newLoc; unacknowledged results they wait
// on are re-sent there (§3.1 semantics, batched).
func (g *GroupProxy) updateLoc(moved *aggstate.Set, newLoc ids.MSS) {
	moved.ForEach(func(v uint32) {
		mh := ids.MH(v)
		g.members.Add(v)
		if newLoc == g.host.id {
			delete(g.memberLoc, mh)
		} else {
			g.memberLoc[mh] = newLoc
		}
	})
	for _, key := range g.entryOrder {
		e := g.entries[key]
		if e == nil || !e.hasResult || e.unacked == 0 {
			continue
		}
		for i := range e.waiters {
			if !e.waiters[i].acked && moved.Contains(uint32(e.waiters[i].mh)) {
				g.forward(e, i)
			}
		}
	}
}

// --- Hand-off signaling coalescing ------------------------------------
//
// The respMss side of the optimization: instead of one update_currentLoc
// per (member, hand-off), location changes and forwarded-result acks
// addressed to the same group proxy are buffered for AggFlushDelay and
// shipped as single group messages carrying a delta-encoded member set.
// With AggFlushDelay zero each notification still goes out immediately
// (as a one-member group message) — the aggregation is then purely
// representational.

// groupAckBuf accumulates acks bound for one group proxy. seqs carries
// each member's acked request sequence, aligned at flush time with the
// ascending member iteration order of the set.
type groupAckBuf struct {
	members aggstate.Set
	seqs    map[ids.MH]uint32
}

// announceLoc notifies a proxy of mh's (new or re-confirmed) location:
// the faithful per-host update for private proxies, the buffered group
// path for shared ones.
func (n *MSSNode) announceLoc(proxy ids.ProxyID, mh ids.MH) {
	if !isSharedProxy(proxy) {
		n.sendUpdateCurrLoc(proxy, mh)
		return
	}
	n.bufferGroupLoc(proxy, mh)
}

// bufferGroupLoc enqueues one member location update for proxy.
func (n *MSSNode) bufferGroupLoc(proxy ids.ProxyID, mh ids.MH) {
	if n.w.cfg.AggFlushDelay <= 0 {
		var one aggstate.Set
		one.Add(uint32(mh))
		n.sendGroupLoc(proxy, &one)
		return
	}
	set := n.aggLocBuf[proxy]
	if set == nil {
		set = &aggstate.Set{}
		n.aggLocBuf[proxy] = set
	}
	set.Add(uint32(mh))
	if !n.aggLocArmed {
		n.aggLocArmed = true
		n.after(n.w.cfg.AggFlushDelay, stationTimer{kind: timerGroupLocs})
	}
}

// flushGroupLocs ships every buffered location update, one group
// message per proxy, in deterministic proxy order.
func (n *MSSNode) flushGroupLocs() {
	n.aggLocArmed = false
	for _, proxy := range sortedKeys(n.aggLocBuf, compareProxyIDs) {
		n.sendGroupLoc(proxy, n.aggLocBuf[proxy])
		delete(n.aggLocBuf, proxy)
	}
}

func (n *MSSNode) sendGroupLoc(proxy ids.ProxyID, set *aggstate.Set) {
	n.w.Stats.GroupUpdateLocs.Inc()
	n.sendToStation(proxy.Host, msg.GroupUpdateLoc{
		Proxy:   proxy,
		NewLoc:  n.id,
		Members: set.AppendDelta(nil),
	})
}

// bufferGroupAck enqueues one member's delivery ack for proxy. A member
// acking twice before the flush (two requests completing back-to-back)
// flushes the first batch immediately — the buffer holds one sequence
// per member.
func (n *MSSNode) bufferGroupAck(proxy ids.ProxyID, mh ids.MH, seq uint32) {
	if n.w.cfg.AggFlushDelay <= 0 {
		buf := &groupAckBuf{seqs: map[ids.MH]uint32{mh: seq}}
		buf.members.Add(uint32(mh))
		n.sendGroupAck(proxy, buf)
		return
	}
	buf := n.aggAckBuf[proxy]
	if buf == nil {
		buf = &groupAckBuf{seqs: make(map[ids.MH]uint32)}
		n.aggAckBuf[proxy] = buf
	}
	if _, dup := buf.seqs[mh]; dup {
		n.sendGroupAck(proxy, buf)
		delete(n.aggAckBuf, proxy)
		buf = &groupAckBuf{seqs: make(map[ids.MH]uint32)}
		n.aggAckBuf[proxy] = buf
	}
	buf.members.Add(uint32(mh))
	buf.seqs[mh] = seq
	if !n.aggAckArmed {
		n.aggAckArmed = true
		n.after(n.w.cfg.AggFlushDelay, stationTimer{kind: timerGroupAcks})
	}
}

// flushGroupAcks ships every buffered ack batch in deterministic order.
func (n *MSSNode) flushGroupAcks() {
	n.aggAckArmed = false
	for _, proxy := range sortedKeys(n.aggAckBuf, compareProxyIDs) {
		n.sendGroupAck(proxy, n.aggAckBuf[proxy])
		delete(n.aggAckBuf, proxy)
	}
}

func (n *MSSNode) sendGroupAck(proxy ids.ProxyID, buf *groupAckBuf) {
	seqs := make([]uint32, 0, len(buf.seqs))
	buf.members.ForEach(func(v uint32) {
		seqs = append(seqs, buf.seqs[ids.MH(v)])
	})
	n.w.Stats.GroupAckForwards.Inc()
	n.sendToStation(proxy.Host, msg.GroupAckForward{
		Proxy:   proxy,
		Members: buf.members.AppendDelta(nil),
		Seqs:    seqs,
	})
}

// compareProxyIDs orders proxy identifiers by host, then sequence.
func compareProxyIDs(a, b ids.ProxyID) int {
	return cmp.Or(cmp.Compare(a.Host, b.Host), cmp.Compare(a.Seq, b.Seq))
}

// handle takes one message addressed to the group proxy
// (MSSNode.deliver): the coalesced group signaling, and the per-member
// kinds a private proxy takes too — a member that moved to another cell
// kept its shared pref, so its later requests arrive as forwards and
// (re-)join the group with the sender station as delivery location;
// single-member location updates and acks come from stations running
// without coalescing and from stale-incarnation bounces. DelProxy never
// applies to a group proxy, and nothing else does either: leases and
// batches are counted as orphans.
func (g *GroupProxy) handle(from ids.NodeID, m msg.Message) {
	switch m.Kind() {
	case msg.KindRequestForward:
		l := g.host.w.legOf(m)
		g.join(l.Req.Origin, from.MSS(), l.Req, l.Server, l.Payload, l.Inc)
	case msg.KindUpdateCurrentLoc:
		l := g.host.w.legOf(m)
		var one aggstate.Set
		one.Add(uint32(l.MH))
		g.updateLoc(&one, l.MSS)
	case msg.KindAckForward:
		l := g.host.w.legOf(m)
		g.ack(l.MH, l.Req.Seq)
	case msg.KindServerResult:
		l := g.host.w.legOf(m)
		g.onServerResult(l.Req, l.Payload)
	case msg.KindGroupUpdateLoc:
		v := m.(msg.GroupUpdateLoc)
		moved, err := aggstate.DecodeDelta(v.Members)
		if err != nil {
			g.host.w.Stats.OrphanMessages.Inc()
			return
		}
		g.updateLoc(moved, v.NewLoc)
	case msg.KindGroupAckForward:
		v := m.(msg.GroupAckForward)
		// Seqs aligns with the ascending iteration of the member set; a
		// mismatched pair is rejected whole.
		set, err := aggstate.DecodeDelta(v.Members)
		if err != nil || set.Len() != len(v.Seqs) {
			g.host.w.Stats.OrphanMessages.Inc()
			return
		}
		i := 0
		set.ForEach(func(mh uint32) {
			g.ack(ids.MH(mh), v.Seqs[i])
			i++
		})
	default:
		g.host.w.Stats.OrphanMessages.Inc()
	}
}
