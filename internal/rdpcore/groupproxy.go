package rdpcore

import (
	"bytes"
	"cmp"
	"slices"

	"repro/internal/aggstate"
	"repro/internal/ids"
	"repro/internal/msg"
)

// This file holds what makes a proxy a group proxy — the fan-out half of
// the aggregated-location-state optimization (E16) — and the coalesced
// signaling addressed to one. The paper's proxy is per-host: a cell of
// 10k subscribers asking one server the same question builds 10k
// proxies, 10k server round trips and 10k pref/location records. When
// the deployment can classify requests into topics (Config.GroupTopic),
// all subscribers of a (server, topic) pair in a cell share ONE proxy:
// one server request per distinct question, one pref value for the
// whole population (which the prefTable then stores as a single
// aggregate record), and hand-off signaling batched into per-group
// messages carrying delta-encoded member sets.
//
// A group proxy is a Proxy whose group is set. Its requestList holds one
// entry per question in flight — the first joiner's request, whose
// result the others share — and its currentLoc is its own station. What
// the private proxy keeps of its one host, the group keeps of many: the
// members each entry waits on, and where a member is when that is not
// the proxy's own cell. Its life-cycle is durable: it is cell
// infrastructure, not per-request state, so no §3.3 removal applies to
// it (onAck), no del-pref rides on its forwards (forwardTo), it holds no
// incarnation lease (armLease, renewLease; each member's forward still
// carries — and is gated by — that member's own incarnation) and it is
// never offered for migration (maybeMigrate). Its member set is append-only: a departed member
// costs its bits in the set and a possible wasted forward, but never a
// per-member bookkeeping map, which is exactly the O(hosts) cost this
// representation removes.

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

// proxyGroup is what makes a proxy a group proxy.
type proxyGroup struct {
	key groupKey
	// members is the append-only subscriber population; memberLoc
	// records only the members whose current respMss is NOT the proxy's
	// own station — in the common case (subscribers in the group's own
	// cell) it stays empty.
	members   aggstate.Set
	memberLoc map[ids.MH]ids.MSS
	// waiters holds, by the entry's request, the members a shared entry
	// fans out to. An entry without one — a batch member — has one
	// member, its request's origin, as a private proxy's entry does.
	waiters map[ids.RequestID]*waiterList
}

// sharedWaiter is one member request subscribed to a shared entry: 16
// bytes of steady state per waiting request, against the faithful ~300+
// bytes of proxy + requestList entry.
type sharedWaiter struct {
	req       ids.RequestID
	inc       ids.Incarnation
	acked     bool
	forwarded bool
}

// waiterList is the member list of one shared entry.
type waiterList struct {
	list    []sharedWaiter
	unacked int
	// ackIdx maps a member request to its waiter's index. Built when the
	// result is stored (acks can only follow forwards) and freed with the
	// entry, so steady-state subscription memory stays at the 16-byte
	// waiter records.
	ackIdx map[ids.RequestID]int
	// entrants guards duplicate joins: the common path (new member) is
	// one O(log n) set insert; only a repeated member pays the scan that
	// tells a retry from a new request.
	entrants aggstate.Set
}

// sharedGroupFor returns the group proxy serving (server, payload) in
// this cell, creating it on first use — or nil when aggregation is off
// or the deployment's topic classifier declines the request.
func (n *MSSNode) sharedGroupFor(server ids.Server, payload []byte) *Proxy {
	if !n.w.cfg.AggregatedState || n.w.cfg.GroupTopic == nil || !server.Valid() {
		return nil
	}
	topic, ok := n.w.cfg.GroupTopic(server, payload)
	if !ok {
		return nil
	}
	key := groupKey{server: server, topic: topic}
	if seq, ok := n.topicProxies[key]; ok {
		return n.proxyAt(seq)
	}
	// Group proxies draw from the same persistent sequence counter as
	// per-request proxies, so identifiers stay unique across crashes.
	p := newProxy(ids.ProxyID{Host: n.id, Seq: sharedProxyBit | n.newSeq()}, ids.NoMH, n)
	p.group = &proxyGroup{key: key, memberLoc: make(map[ids.MH]ids.MSS), waiters: make(map[ids.RequestID]*waiterList)}
	n.put(p.id.Seq, p)
	n.topicProxies[key] = p.id.Seq
	n.w.Stats.SharedProxies.Inc()
	return p
}

// waitersOf returns the member list of req's entry, nil for a private
// proxy's entry or a group proxy's one-member entry.
func (g *proxyGroup) waitersOf(req ids.RequestID) *waiterList {
	if g == nil {
		return nil
	}
	return g.waiters[req]
}

// locate records that member mh is at loc, home being the proxy's own
// station.
func (g *proxyGroup) locate(mh ids.MH, loc, home ids.MSS) {
	g.members.Add(uint32(mh))
	if loc == home {
		delete(g.memberLoc, mh)
	} else {
		g.memberLoc[mh] = loc
	}
}

// join is addRequest's group arm: member req, at loc, joins the shared
// entry asking server payload, which the first member to ask opens and
// issues. A new member is appended, and served at once when the result is
// in; a repeated one is a retry, arbitrated by incarnation like a private
// proxy's request — older is a ghost, newer reuses the identifier for a
// brand-new request of the reborn host.
func (p *Proxy) join(req ids.RequestID, server ids.Server, payload []byte, inc ids.Incarnation, loc ids.MSS) {
	g := p.group
	g.locate(req.Origin, loc, p.currentLoc)
	p.host.w.Stats.SharedJoins.Inc()
	i := slices.IndexFunc(p.reqs, func(r msg.ProxyReq) bool {
		return g.waiters[r.Req] != nil && r.Server == server && bytes.Equal(r.Payload, payload)
	})
	if i < 0 {
		p.reqs = append(p.reqs, msg.ProxyReq{Req: req, Server: server, Payload: payload, Inc: inc})
		i = len(p.reqs) - 1
		g.waiters[req] = new(waiterList)
		p.issue(&p.reqs[i])
	}
	r := &p.reqs[i]
	ws := g.waiters[r.Req]
	i = -1
	if ws.entrants.Contains(uint32(req.Origin)) {
		i = slices.IndexFunc(ws.list, func(w sharedWaiter) bool { return w.req == req })
	}
	if i < 0 {
		ws.entrants.Add(uint32(req.Origin))
		ws.list = append(ws.list, sharedWaiter{req: req, inc: inc})
		ws.unacked++
		i = len(ws.list) - 1
		if ws.ackIdx != nil {
			ws.ackIdx[req] = i
		}
	}
	w := &ws.list[i]
	switch {
	case incLess(inc, w.inc):
		p.host.w.Stats.StaleIncarnationDrops.Inc()
		return
	case incLess(w.inc, inc):
		w.inc, w.forwarded = inc, false
		if w.acked {
			w.acked = false
			ws.unacked++
		}
	}
	if r.HasResult && !w.acked {
		p.forwardTo(r, req, w.inc, &w.forwarded)
	}
}

// indexAcks builds ackIdx over the current waiters.
func (ws *waiterList) indexAcks() {
	ws.ackIdx = make(map[ids.RequestID]int, len(ws.list))
	for i, w := range ws.list {
		ws.ackIdx[w.req] = i
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
