package rdpcore

import (
	"maps"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/proxymig"
)

// This file implements the proxy-migration mechanism (policy layer:
// internal/proxymig). When a trigger fires on a remote result forward,
// the proxy's host offers the proxy to the MH's current respMss:
//
//	old host            target (MH's respMss)         servers
//	  │ ── mig_offer ──────▶ │  admission: responsible,
//	  │                      │  inbox, load-improvement check
//	  │                      │  (counting inbound reservations)
//	  │ ◀─ mig_commit ────── │  (allocates + reserves NewProxy)
//	  │ ── mig_state ──────▶ │  installs proxy under NewProxy,
//	  │  (tombstone up)      │  rebinds local pref, announces:
//	  │ ◀───────────────────────── pref_redirect ──────▶ │
//	  │ ◀─ pref_redirect(confirm) ─────────────────────  │
//	  │  all confirmed + linger quiet period elapsed
//	  │ ── mig_gc ─────────▶ │  (reservation closed)
//
// The tombstone left at the old host redirects in-flight server replies,
// late Acks, stale request forwards and location updates to the new
// host, rewriting the proxy identity on the way and lazily re-binding
// the stale sender's pref. It is garbage-collected only after every
// server with a pending request confirmed the new pref AND a linger
// quiet period passed with no redirect traffic — FIFO ordering makes
// the confirms safe against the servers' own in-flight replies, but a
// stale pref at a third station can surface arbitrarily late.
//
// Composition with the rest of the stack:
//   - E10 crashes: the tombstone (identity map + outstanding confirms)
//     is journaled to stable store; mig_state/mig_commit in flight to a
//     crashed peer are held by the wired ARQ like any other control
//     message. The inbound reservation is volatile — losing it is safe
//     because the allocated sequence number was persisted and a
//     post-restart mig_state installs regardless.
//   - E11 overload: a station past its inbox high-water mark refuses
//     offers as it refuses new requests, and an inbound reservation
//     counts as load in the load check; migration control travels class
//     0 of the priority inbox (see classOf) and, being wired control
//     traffic, is never silently shed (wired sheds are ARQ backpressure).

// tombstone is the forwarding stub left at a proxy's old host after it
// migrated: the old→new identity map, plus the set of servers that
// still owed a reply at snapshot time and have not yet confirmed the
// new pref.
type tombstone struct {
	host           *MSSNode
	oldProxy       ids.ProxyID
	newProxy       ids.ProxyID
	mh             ids.MH
	pendingServers map[ids.Server]bool
	gcEpoch        int // invalidates superseded linger timers
}

// clone returns a deep copy without the host and the timer epoch: what
// the journal stores, and what a restart revives from it.
func (t tombstone) clone() tombstone {
	t.host, t.pendingServers, t.gcEpoch = nil, maps.Clone(t.pendingServers), 0
	return t
}

// migReservation is the target-side bookkeeping of an accepted offer:
// the old identity it answers for, and proxy-addressed traffic that
// arrived for the new identity before the mig_state did (a station that
// learned the new pref early can legally race the state transfer).
type migReservation struct {
	oldProxy ids.ProxyID
	buffered []inboxItem
}

// noteForward runs on every result forward a proxy issues, to loc: it
// accounts the forwarding-path length and consults the migration policy.
func (n *MSSNode) noteForward(p *Proxy, loc ids.MSS) {
	d := n.w.distance(n.id, loc)
	n.w.Stats.ForwardHops.Add(int64(d))
	n.w.Stats.ForwardCount.Inc()
	n.w.Stats.ForwardHopMax.Observe(int64(d))
	if d == 0 {
		return
	}
	p.remoteForwards++
	n.maybeMigrate(p, d)
}

// maybeMigrate offers the proxy to the MH's current station when the
// policy fires. At most one offer per proxy is in flight; a lost
// offer/commit (possible only without the ARQ) simply leaves the proxy
// fixed until the cooldown lets the next trigger re-offer. A group proxy
// stays with its cell: it is never offered.
func (n *MSSNode) maybeMigrate(p *Proxy, dist int) {
	pol := n.w.cfg.Migration
	if !pol.Enabled() || p.group != nil {
		return
	}
	if p.migOffered && time.Duration(n.w.Kernel.Now()-p.lastMigAttempt) < pol.Linger() {
		return // offer in flight
	}
	reason, ok := pol.Decide(proxymig.Observation{
		Distance:       dist,
		RemoteForwards: p.remoteForwards,
		HostProxies:    n.nProxies,
		SinceAttempt:   time.Duration(n.w.Kernel.Now() - p.lastMigAttempt),
	})
	if !ok {
		return
	}
	p.lastMigAttempt, p.migOffered = n.w.Kernel.Now(), true
	n.w.Stats.MigOffers.Inc()
	n.sendWired(p.currentLoc.Node(), msg.MigOffer{
		Proxy:     p.id,
		MH:        p.mh,
		Pending:   uint32(len(p.reqs)),
		HostLoad:  uint32(n.nProxies),
		LoadCheck: reason == proxymig.ReasonLoad,
	})
}

// handleMigOffer is the target-side admission decision. Refusal is
// cheap and final for this offer; the old host's next trigger may try
// again.
func (n *MSSNode) handleMigOffer(m msg.MigOffer) {
	refuse := !n.Responsible(m.MH) // the MH moved on (or never arrived)
	if hw := n.w.cfg.AdmissionHighWater; hw > 0 && n.inbox.len() >= hw {
		refuse = true // an overloaded station does not adopt more work
	}
	if m.LoadCheck && !proxymig.AcceptLoad(int(m.HostLoad), n.nProxies+n.nReserved) {
		refuse = true // load-driven move must improve the balance
	}
	if refuse {
		n.w.Stats.MigRefusals.Inc()
		n.sendWired(m.Proxy.Host.Node(), msg.MigCommit{Proxy: m.Proxy, MH: m.MH})
		return
	}
	newID := ids.ProxyID{Host: n.id, Seq: n.newSeq()}
	n.put(newID.Seq, &migReservation{oldProxy: m.Proxy})
	n.sendWired(m.Proxy.Host.Node(),
		msg.MigCommit{Proxy: m.Proxy, NewProxy: newID, MH: m.MH, Accept: true})
}

// handleMigCommit completes (or abandons) the offer at the old host.
func (n *MSSNode) handleMigCommit(m msg.MigCommit) {
	p := n.proxyAt(m.Proxy.Seq)
	if p != nil {
		p.migOffered = false
	}
	if !m.Accept {
		return
	}
	if p == nil {
		// The proxy is gone — acked away, or migrated on an earlier
		// commit. Cancel the target's reservation; the allocated
		// sequence number is simply burnt.
		n.sendWired(m.NewProxy.Host.Node(),
			msg.MigGC{OldProxy: m.Proxy, NewProxy: m.NewProxy, MH: m.MH})
		return
	}
	n.migrateOut(p, m.NewProxy)
}

// migrateOut atomically takes the proxy's image, ships it, and replaces
// the proxy with a tombstone — all in one simulation event, so a crash
// either precedes the whole step or follows it, and the journal swaps the
// one image for the other in the event's one write of the slot. The image
// is a fresh copy of the one the journal keeps: requests, batches, abort
// memos and floors, and the lease's vouched-for incarnation (E17/E18) —
// the new incarnation answers replayed batch traffic with the same abort,
// and the lease clock itself restarts at the new host.
func (n *MSSNode) migrateOut(p *Proxy, newID ids.ProxyID) {
	var st msg.MigState
	p.image(&st)
	st.NewProxy = newID
	t := &tombstone{
		host:           n,
		oldProxy:       p.id,
		newProxy:       newID,
		mh:             p.mh,
		pendingServers: make(map[ids.Server]bool),
	}
	for _, r := range p.reqs {
		if !r.HasResult {
			t.pendingServers[r.Server] = true
		}
	}
	n.retire(p)
	n.put(p.id.Seq, t)
	n.sendWired(newID.Host.Node(), st)
	if len(t.pendingServers) == 0 {
		n.armTombstoneGC(t)
	}
}

// handleMigState installs the transferred proxy at the target under its
// new identity and announces the new pref.
func (n *MSSNode) handleMigState(m msg.MigState) {
	if m.NewProxy.Host != n.id {
		n.w.Stats.OrphanMessages.Inc()
		return
	}
	// A missing reservation is legal: a crash on this station wiped it,
	// but the sequence number was persisted at allocation, so the
	// identity is still uniquely ours and the install proceeds.
	held := n.hosted[m.NewProxy.Seq]
	res, _ := held.(*migReservation)
	if held != nil && res == nil {
		// A duplicate install, or a stale one: this identity already lived
		// here and moved on.
		return
	}
	n.take(m.NewProxy.Seq) // the reservation, unless a crash wiped it
	p := n.revive(m.NewProxy, &m, nil)
	// The install itself counts as a migration attempt: an MH ping-ponging
	// between cells must not drag its proxy along inside the cooldown.
	p.lastMigAttempt = n.w.Kernel.Now()
	n.w.Stats.ProxyCreations[n.id]++ // placement accounting (E12 fairness)
	// Rebind the local pref, or chase it along the hand-off chain if the
	// MH deregistered between commit and install.
	pref, responsible := n.prefs.get(m.MH)
	if responsible && pref.Proxy == m.Proxy {
		pref.Proxy = m.NewProxy
		n.setPref(m.MH, pref)
		n.w.Stats.PrefRedirects.Inc()
	} else if h := n.peek(m.MH); h.departed() {
		n.sendWired(h.forwardTo.Node(),
			msg.PrefRedirect{MH: m.MH, OldProxy: m.Proxy, NewProxy: m.NewProxy})
	}
	// If the MH is here but the snapshot still points elsewhere, this is
	// also a location update: stored results were forwarded to the wrong
	// station and must be re-sent. When currentLoc already names this
	// station (the common trigger case), the single forwarding attempt
	// already happened toward here — re-sending would only manufacture
	// duplicates.
	if responsible && p.currentLoc != n.id {
		p.onUpdateLoc(n.id, nil)
	}
	// Announce the new pref to every server still owing a reply; each
	// confirms to the old host, draining the tombstone's confirm set.
	for _, r := range p.reqs {
		if !r.HasResult {
			n.sendWired(r.Server.Node(),
				msg.PrefRedirect{MH: m.MH, OldProxy: m.Proxy, NewProxy: m.NewProxy, Req: r.Req})
		}
	}
	// Traffic that arrived for the new identity before the state did.
	if res != nil {
		for i := range res.buffered {
			n.dispatch(res.buffered[i].from, res.buffered[i].env.Message())
		}
	}
}

// handlePrefRedirect serves both directions of the redirect message at
// a station: a server confirmation feeding a tombstone's confirm set,
// or a rebind notice updating a stale pref (chasing the hand-off chain
// if the MH has moved on).
func (n *MSSNode) handlePrefRedirect(from ids.NodeID, m msg.PrefRedirect) {
	if m.Confirm {
		t, _ := n.hosted[m.OldProxy.Seq].(*tombstone)
		if t == nil || from.Kind != ids.KindServer {
			return
		}
		srv := ids.Server(from.Num)
		if !t.pendingServers[srv] {
			return
		}
		n.markSlot(m.OldProxy.Seq)
		delete(t.pendingServers, srv)
		if len(t.pendingServers) == 0 {
			n.armTombstoneGC(t)
		}
		return
	}
	h := n.peek(m.MH)
	if arr := h.arrival(); arr != nil {
		// Our registration for the MH is in flight; apply the rebind
		// after the deregack installs the pref it should act on.
		arr.deferred = append(arr.deferred, inboxItem{from: from, env: msg.EnvelopeOf(m)})
		return
	}
	if pref, ok := n.prefs.get(m.MH); ok && pref.Proxy == m.OldProxy {
		pref.Proxy = m.NewProxy
		n.setPref(m.MH, pref)
		n.w.Stats.PrefRedirects.Inc()
		return
	}
	if h.departed() {
		n.sendWired(h.forwardTo.Node(), m)
	}
	// Otherwise stale: the pref was already rebound, erased, or lives on
	// a chain this station has no trace of; the tombstone covers it.
}

// handleMigGC closes the episode at the target: the tombstone is gone
// (or the offer was cancelled before the state transfer), so the
// reservation bookkeeping can be dropped.
func (n *MSSNode) handleMigGC(m msg.MigGC) {
	if _, reserved := n.hosted[m.NewProxy.Seq].(*migReservation); reserved {
		n.take(m.NewProxy.Seq)
	}
}

// handle holds a message that reached the new identity before the
// mig_state did; handleMigState replays it once the proxy is installed.
func (r *migReservation) handle(from ids.NodeID, m msg.Message) {
	r.buffered = append(r.buffered, inboxItem{from: from, env: msg.EnvelopeOf(m)})
}

// handle sends a message for the departed proxy after it, under the new
// identity, tells the station that sent it where the proxy went — so the
// next one goes direct — and extends the tombstone's quiet period.
func (t *tombstone) handle(from ids.NodeID, m msg.Message) {
	n := t.host
	if l, ok := msg.LegOf(m); ok {
		l.Proxy = t.newProxy
		n.sendWired(t.newProxy.Host.Node(), n.w.view(l))
	} else {
		n.sendWired(t.newProxy.Host.Node(), m.(msg.ProxyAddressed).WithProxy(t.newProxy))
	}
	if from.Kind == ids.KindMSS && ids.MSS(from.Num) != n.id {
		n.sendWired(from,
			msg.PrefRedirect{MH: t.mh, OldProxy: t.oldProxy, NewProxy: t.newProxy})
	}
	if len(t.pendingServers) == 0 {
		n.armTombstoneGC(t) // redirect traffic re-opens the quiet period
	}
}

// armTombstoneGC (re-)starts the tombstone's linger timer. Each arming
// supersedes the previous one (gcEpoch); the tombstone dies only when a
// full quiet period passes after the last confirmation or redirect.
func (n *MSSNode) armTombstoneGC(t *tombstone) {
	t.gcEpoch++
	n.after(n.w.cfg.Migration.Linger(), stationTimer{kind: timerTombstone, t: t, epoch: uint64(t.gcEpoch)})
}

// tombstoneQuiet ends arming epoch's quiet period: the tombstone goes if
// it is still here, that arming is its last, and nothing is pending.
func (n *MSSNode) tombstoneQuiet(t *tombstone, epoch int) {
	if n.hosted[t.oldProxy.Seq] == t && t.gcEpoch == epoch && len(t.pendingServers) == 0 {
		n.gcTombstone(t)
	}
}

// gcTombstone retires a fully-confirmed, quiet tombstone and tells the
// new host the episode is over.
func (n *MSSNode) gcTombstone(t *tombstone) {
	n.take(t.oldProxy.Seq)
	n.w.Stats.MigCompleted.Inc()
	n.sendWired(t.newProxy.Host.Node(),
		msg.MigGC{OldProxy: t.oldProxy, NewProxy: t.newProxy, MH: t.mh})
}
