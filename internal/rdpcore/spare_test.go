package rdpcore

import (
	"slices"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// liveProxy returns the proxy mh's pref at its respMss names.
func liveProxy(t *testing.T, w *World, at ids.MSS, mh ids.MH) *Proxy {
	t.Helper()
	pref, _ := w.MSSs[at].PrefOf(mh)
	var p *Proxy
	if host := w.MSSs[pref.Proxy.Host]; host != nil {
		p = host.ProxyByID(pref.Proxy)
	}
	if p == nil {
		t.Fatalf("mh%d has no live proxy (pref %v)", mh, pref)
	}
	return p
}

// TestRetiredProxyIsReused: a proxy del-proxy ended goes to its station's
// spare stock, and the host's next request makes its proxy over that
// record, under a new identity and with nothing of the old life left.
func TestRetiredProxyIsReused(t *testing.T) {
	w := quickWorld(nil)
	h := w.AddMH(1, 1)
	w.RunUntil(100 * time.Millisecond)
	h.IssueRequest(1, []byte("q1"))
	w.RunUntil(150 * time.Millisecond)
	p1 := liveProxy(t, w, 1, 1)
	id1 := p1.id
	w.RunUntil(time.Second)
	if n := w.MSSs[1]; w.TotalProxies() != 0 || !slices.Contains(n.spareProxies, p1) {
		t.Fatalf("%d proxies left, spare stock %v does not hold the retired one", w.TotalProxies(), n.spareProxies)
	}
	req := h.IssueRequest(1, []byte("q2"))
	w.RunUntil(1050 * time.Millisecond)
	p2 := liveProxy(t, w, 1, 1)
	if p2 != p1 || p2.id == id1 || p2.Pending() != 1 || p2.req(req) == nil || p2.remoteForwards != 0 {
		t.Fatalf("next proxy %p (id %v, %d pending), want the retired record %p under a new identity", p2, p2.id, p2.Pending(), p1)
	}
	w.RunUntil(2 * time.Second)
	if !h.Seen(req) || w.TotalProxies() != 0 || w.Stats.Violations.Value() != 0 {
		t.Fatalf("second request seen %v, %d proxies, %d violations", h.Seen(req), w.TotalProxies(), w.Stats.Violations.Value())
	}
}

// TestArmedProxyIsNeverReused: a proxy del-proxy ends while its lease
// expiry (Config.LeaseTTL) or a batch deadline (Config.BatchDeadline) is
// still armed stays out of the spare stock. The stale timer then finds
// the record it was armed for — gone from the table — and leaves the next
// proxy alone: were the record reused, the old deadline (armed for batch
// record 1) would abort the new proxy's batch record 1, and the old expiry
// would match the new proxy's first lease arming.
func TestArmedProxyIsNeverReused(t *testing.T) {
	for _, c := range []struct {
		name            string
		lease, deadline time.Duration
	}{{"lease", 3 * time.Second, 0}, {"deadline", 0, 2 * time.Second}} {
		cfg := DefaultConfig()
		cfg.NumMSS = 2
		cfg.WiredLatency = netsim.Constant(5 * time.Millisecond)
		cfg.WirelessLatency = netsim.Constant(10 * time.Millisecond)
		cfg.ServerProc = netsim.Constant(50 * time.Millisecond)
		cfg.LeaseTTL, cfg.BatchDeadline = c.lease, c.deadline
		w := NewWorld(cfg)
		h := w.AddMH(1, 1)
		w.RunUntil(100 * time.Millisecond)

		// The lease case issues plain requests, the deadline case batches:
		// each proxy arms just the one timer.
		issue := func(payload string) func() bool {
			if c.lease > 0 {
				req := h.IssueRequest(1, []byte(payload))
				return func() bool { return h.Seen(req) }
			}
			b := h.BeginBatch()
			h.BatchRequest(b, 1, []byte(payload))
			return func() bool {
				h.CommitBatch(b)
				return false
			}
		}
		issue("a")()
		w.RunUntil(150 * time.Millisecond)
		p1 := liveProxy(t, w, 1, 1)
		w.RunUntil(time.Second) // answered, delivered, acked: del-proxy, its timer still armed
		if w.Stats.ProxiesDeleted.Value() != 1 || w.TotalProxies() != 0 {
			t.Fatalf("%s: %d proxies deleted, %d live; want 1, 0", c.name, w.Stats.ProxiesDeleted.Value(), w.TotalProxies())
		}
		if n := w.MSSs[1]; len(n.spareProxies) != 0 {
			t.Fatalf("%s: a proxy with an armed timer was stocked: %v", c.name, n.spareProxies)
		}

		second := issue("b")
		w.RunUntil(1020 * time.Millisecond)
		if p2 := liveProxy(t, w, 1, 1); p2 == p1 {
			t.Fatalf("%s: the next proxy reuses a record whose timer is armed", c.name)
		}
		w.RunUntil(2500 * time.Millisecond) // p1's batch deadline has passed; the second batch is uncommitted
		second()
		w.RunUntil(3500 * time.Millisecond) // and so has p1's lease expiry
		if got := w.Stats.ResultsDelivered.Value(); got != 2 {
			t.Fatalf("%s: %d results delivered, want 2", c.name, got)
		}
		if got := w.Stats.BatchesAborted.Value() + w.Stats.ProxiesReclaimed.Value(); got != 0 {
			t.Fatalf("%s: %d aborts and reclaims: a stale timer struck", c.name, got)
		}
	}
}

// TestMigratedOrReclaimedProxyIsNotStocked: only del-proxy stocks a
// proxy; one that migrates away or is reclaimed stays out of the spare
// stock.
func TestMigratedOrReclaimedProxyIsNotStocked(t *testing.T) {
	w, p, _ := proxyFixture(t) // the server takes 10 s: the proxy holds its request
	n := w.MSSs[1]
	w.Migrate(1, 2)
	w.RunUntil(time.Second)
	w.MSSs[2].process(ids.MSS(1).Node(), msg.MigOffer{Proxy: p.id, MH: 1})
	w.RunUntil(2 * time.Second)
	if n.proxyAt(p.id.Seq) == p || w.Stats.ProxyCreations[2] != 1 {
		t.Fatalf("the proxy did not migrate to mss2 (%d placements there)", w.Stats.ProxyCreations[2])
	}
	if len(n.spareProxies) != 0 {
		t.Fatalf("a migrated proxy was stocked: %v", n.spareProxies)
	}

	q := liveProxy(t, w, 2, 1)
	m := w.MSSs[2]
	m.reclaimProxy(q)
	m.flushJournal()
	if m.proxyAt(q.id.Seq) != nil || len(m.spareProxies) != 0 {
		t.Fatalf("a reclaimed proxy was stocked (%v) or kept (%v)", m.spareProxies, m.proxyAt(q.id.Seq))
	}
}

// TestCrashEmptiesSpareStocks: a station's crash takes its spare stocks
// with the rest of its memory.
func TestCrashEmptiesSpareStocks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumMSS = 2
	cfg.Checkpoint = true
	w := NewWorld(cfg)
	h := w.AddMH(1, 1)
	w.Run()
	h.IssueRequest(1, []byte("q"))
	w.Run()
	w.Migrate(1, 2)
	w.Run()
	n := w.MSSs[1]
	if len(n.spareProxies) != 1 || len(n.spareImages) != 1 {
		t.Fatalf("stocks before the crash: %d proxies, %d images; want 1, 1",
			len(n.spareProxies), len(n.spareImages))
	}
	w.CrashMSS(1)
	if n.spareProxies != nil || n.spareImages != nil || len(n.retired) != 0 {
		t.Fatalf("stocks after the crash: %v %v %v", n.spareProxies, n.spareImages, n.retired)
	}
	// Station 2 retired the hand-off's transient record once it settled.
	m := w.MSSs[2]
	if len(m.spareTransients) != 1 {
		t.Fatalf("station 2 stocks %d transient records before its crash, want 1", len(m.spareTransients))
	}
	w.CrashMSS(2)
	if m.spareTransients != nil {
		t.Fatalf("transient stock after the crash: %v", m.spareTransients)
	}
}

// windowHost is a host whose requests a test answers by hand over a
// radio that carries nothing (silentRadio).
func windowHost(t *testing.T) (*World, *MHNode, *silentRadio, func(msg.Message)) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumMSS = 2
	radio := &silentRadio{}
	w := NewWorldWith(sim.NewKernel(1), cfg, nil, radio)
	h := w.AddMH(7, 1)
	return w, h, radio, func(m msg.Message) { h.HandleMessage(h.RespMss().Node(), m) }
}

// TestRequestWindowBelow: once the window has moved past settled
// requests, their identifiers read as issued and seen — Seen and
// Admitted true, Abandoned false, as the whole table answered — and a
// duplicate result for one still counts as a duplicate and is acked.
func TestRequestWindowBelow(t *testing.T) {
	w, h, radio, deliver := windowHost(t)
	r1 := h.IssueRequest(1, []byte("1"))
	r2 := h.IssueRequest(1, []byte("2"))
	deliver(msg.Admit{Req: r1})
	deliver(msg.ResultDeliver{Req: r1, Inc: h.inc})
	deliver(msg.ResultDeliver{Req: r2, Inc: h.inc})
	r3 := h.IssueRequest(1, []byte("3"))
	if h.base != 2 || len(h.reqs) != 1 {
		t.Fatalf("window base %d, %d rows; want 2, 1", h.base, len(h.reqs))
	}
	for _, req := range []ids.RequestID{r1, r2} {
		if !h.Seen(req) || !h.Admitted(req) || h.Abandoned(req) {
			t.Errorf("%v below the window: seen/admitted/abandoned %v/%v/%v, want true/true/false",
				req, h.Seen(req), h.Admitted(req), h.Abandoned(req))
		}
	}
	radio.up = radio.up[:0]
	dups := w.Stats.DuplicateDeliveries.Value()
	deliver(msg.ResultDeliver{Req: r1, Inc: h.inc})
	if got := w.Stats.DuplicateDeliveries.Value() - dups; got != 1 {
		t.Errorf("duplicate below the window counted %d times, want 1", got)
	}
	want := msg.Message(msg.AckMH{MH: h.id, Req: r1, HaveOutstanding: true})
	if len(radio.up) != 1 || radio.up[0] != want {
		t.Errorf("duplicate below the window answered %v, want %v", radio.up, want)
	}
	if !h.Seen(r1) || h.Seen(r3) || h.nOutstanding != 1 || w.Stats.ResultsDelivered.Value() != 2 {
		t.Errorf("after the duplicate: seen %v/%v, %d outstanding, %d delivered",
			h.Seen(r1), h.Seen(r3), h.nOutstanding, w.Stats.ResultsDelivered.Value())
	}
}

// TestAbandonedRowLeavesWindow: an abandoned row — a member of an
// aborted batch — holds nothing pending, so the window moves past it as
// past a seen one and keeps it in stray: after 200 later requests are
// delivered, one row is left and base reads 200, while the member still
// reads abandoned, and its late result seen.
func TestAbandonedRowLeavesWindow(t *testing.T) {
	_, h, _, deliver := windowHost(t)
	b := h.BeginBatch()
	member := h.BatchRequest(b, 1, []byte("m"))
	deliver(msg.BatchAbort{MH: h.id, Batch: b, Inc: h.inc})
	for i := 0; i < 200; i++ {
		r := h.IssueRequest(1, []byte("q"))
		deliver(msg.ResultDeliver{Req: r, Inc: h.inc})
		if i == 0 && (!h.Abandoned(member) || h.Seen(member)) {
			t.Fatalf("member %v left the window abandoned %v, seen %v; want true, false", member, h.Abandoned(member), h.Seen(member))
		}
	}
	if h.base != 200 || len(h.reqs) != 1 || len(h.stray) != 1 {
		t.Fatalf("window base %d, %d rows, %d stray; want 200, 1, 1", h.base, len(h.reqs), len(h.stray))
	}
	deliver(msg.ResultDeliver{Req: member, Inc: h.inc}) // a late result: seen, and still abandoned
	if !h.Abandoned(member) || !h.Seen(member) || len(h.stray) != 1 {
		t.Errorf("member %v after its late result: abandoned %v, seen %v, %d stray; want true, true, 1",
			member, h.Abandoned(member), h.Seen(member), len(h.stray))
	}
}

// TestRequestWindowAcrossCrash: a crash resets the window with the rest
// of the host's memory, identifiers restart at 1, and one beyond the
// window — before the crash or after it — is a stray row until the
// window reaches it.
func TestRequestWindowAcrossCrash(t *testing.T) {
	w, h, _, deliver := windowHost(t)
	for i := 0; i < 3; i++ {
		r := h.IssueRequest(1, []byte("q"))
		deliver(msg.ResultDeliver{Req: r, Inc: h.inc})
	}
	ahead := ids.RequestID{Origin: h.id, Seq: 6}
	deliver(msg.ResultDeliver{Req: ahead, Inc: h.inc})
	if r := h.IssueRequest(1, []byte("q")); r.Seq != 4 || h.base != 3 || h.stray[ahead] == nil {
		t.Fatalf("issued %v with base %d, stray %v", r, h.base, h.stray)
	}
	w.CrashMH(h.id)
	if h.base != 0 || len(h.reqs) != 0 || h.stray != nil || h.Seen(ids.RequestID{Origin: h.id, Seq: 1}) {
		t.Fatalf("after the crash: base %d, %d rows, stray %v", h.base, len(h.reqs), h.stray)
	}
	w.RestartMH(h.id)
	beyond := ids.RequestID{Origin: h.id, Seq: 2}
	deliver(msg.ResultDeliver{Req: beyond, Inc: h.inc})
	if h.stray[beyond] == nil || !h.Seen(beyond) {
		t.Fatalf("a result beyond the reset window left stray %v, seen %v", h.stray, h.Seen(beyond))
	}
	r1 := h.IssueRequest(1, []byte("q"))
	r2 := h.IssueRequest(1, []byte("q"))
	if r1.Seq != 1 || r2 != beyond || !h.Seen(r2) || h.stray[beyond] != nil {
		t.Fatalf("issued %v, %v; stray %v, seen %v", r1, r2, h.stray, h.Seen(r2))
	}
}
