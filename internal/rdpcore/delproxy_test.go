package rdpcore

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/netsim"
)

// settled fails the test unless the world recorded no violation, kept no
// proxy and is quiescent.
func settled(t *testing.T, w *World) {
	t.Helper()
	if log := w.ViolationLog(); len(log) != 0 {
		t.Errorf("violations: %q", log)
	}
	if n := w.TotalProxies(); n != 0 {
		t.Errorf("%d proxies left", n)
	}
	if err := w.CheckQuiescent(); err != nil {
		t.Error(err)
	}
}

// TestDelPrefArmsOnlyWhenMarkCoversRouted: a del-pref whose mark is below
// the highest request the station routed to the proxy was sent before that
// request arrived there, and arms nothing; one whose mark covers it arms
// RKpR for the request it rode on.
func TestDelPrefArmsOnlyWhenMarkCoversRouted(t *testing.T) {
	w := edgeWorld()
	mss1 := w.MSSs[1]
	w.AddMH(7, 1)
	w.Run()
	for seq := uint32(1); seq <= 2; seq++ {
		mss1.process(ids.MH(7).Node(), msg.Request{Req: ids.RequestID{Origin: 7, Seq: seq}, Server: 1, Payload: []byte("q")})
	}
	pref, _ := mss1.PrefOf(7)
	req1 := ids.RequestID{Origin: 7, Seq: 1}
	for _, c := range []struct {
		mark uint32
		want uint32
	}{{1, 0}, {2, 1}} {
		mss1.process(ids.MSS(2).Node(), msg.ResultForward{Proxy: pref.Proxy, MH: 7, Req: req1, Payload: []byte("r"),
			DelPref: true, Mark: c.mark})
		if got, _ := mss1.PrefOf(7); got.RKpR != c.want {
			t.Errorf("del-pref with mark %d: RKpR = %d, want %d", c.mark, got.RKpR, c.want)
		}
	}
}

// TestStaleAckDoesNotConfirmDelProxy: a duplicate Ack of an earlier request
// reaches the station with outst=false while the Ack of the request whose
// del-pref armed RKpR is still on the radio (perf lossy_radio seed 105). It
// speaks for a moment before that request: it must not confirm del-proxy.
func TestStaleAckDoesNotConfirmDelProxy(t *testing.T) {
	w := quickWorld(nil) // wired 5 ms, radio 10 ms, server 50 ms
	mh := w.AddMH(1, 1)
	var req1, req2 ids.RequestID
	w.Schedule(0, func() { req1 = mh.IssueRequest(1, []byte("a")) })
	w.Schedule(40*time.Millisecond, func() { req2 = mh.IssueRequest(1, []byte("b")) })
	// result1 is acked with outst=true; result2's del-pref arms at 110 ms
	// and its Ack reaches the station at 130 ms.
	w.RunUntil(115 * time.Millisecond)
	mss1 := w.MSSs[1]
	pref, _ := mss1.PrefOf(1)
	if !pref.HasProxy() || pref.RKpR != req2.Seq {
		t.Fatalf("set-up: pref %v, RKpR %d; want a proxy, RKpR %d", pref, pref.RKpR, req2.Seq)
	}
	mss1.process(mh.ID().Node(), msg.AckMH{MH: 1, Req: req1})
	if got, _ := mss1.PrefOf(1); got.Proxy != pref.Proxy {
		t.Fatalf("the stale Ack of %v confirmed del-proxy: pref %v", req1, got)
	}
	w.Run()
	if !mh.Seen(req1) || !mh.Seen(req2) {
		t.Error("a result went undelivered")
	}
	settled(t, w)
}

// TestRetryProxyBelowRoutedRetires: a client retry of an answered request
// reaches the station after del-proxy ended its proxy. The proxy it makes
// has been routed only that request, far below what the station routed to
// the one before: routed restarts with it, so its del-pref arms and the
// host's Ack of the duplicate result retires it.
func TestRetryProxyBelowRoutedRetires(t *testing.T) {
	w := quickWorld(nil)
	mh := w.AddMH(1, 1)
	req1 := mh.IssueRequest(1, []byte("a"))
	w.Run()
	mh.IssueRequest(1, []byte("b"))
	w.Run()
	mss1 := w.MSSs[1]
	if n, routed := w.TotalProxies(), mss1.peek(1).routed; n != 0 || routed != 2 {
		t.Fatalf("set-up: %d proxies, routed %d; want 0 and 2", n, routed)
	}
	mss1.process(mh.ID().Node(), msg.Request{Req: req1, Server: 1, Payload: []byte("a")})
	w.Run()
	if got := w.Stats.ProxiesCreated.Value(); got != 3 {
		t.Errorf("ProxiesCreated = %d, want 3 (the retry makes one)", got)
	}
	settled(t, w)
}

// TestAbortedMemberDoesNotPinProxy: a batch member routed above the
// proxy's plain request is aborted by the batch deadline. The proxy
// counted it in its mark when it arrived, so the plain request's del-pref
// covers what the station routed, and its Ack retires the proxy.
func TestAbortedMemberDoesNotPinProxy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumMSS, cfg.BatchDeadline = 2, 100*time.Millisecond
	cfg.WiredLatency = netsim.Constant(5 * time.Millisecond)
	cfg.WirelessLatency = netsim.Constant(10 * time.Millisecond)
	// The plain request is answered after the abort; the member never.
	cfg.ServerProc = &scriptedProc{delays: []time.Duration{300 * time.Millisecond, time.Hour}}
	w := NewWorld(cfg)
	mh := w.AddMH(1, 1)
	req := mh.IssueRequest(1, []byte("plain"))
	b := mh.BeginBatch()
	member := mh.BatchRequest(b, 1, []byte("member"))
	w.RunUntil(2 * time.Second)
	if aborted := mh.Abandoned(member); !aborted || member.Seq <= req.Seq {
		t.Fatalf("set-up: batch aborted %v, member %v, request %v", aborted, member, req)
	}
	if !mh.Seen(req) {
		t.Error("the plain request went undelivered")
	}
	settled(t, w)
}

// TestMarkRestartsWithIncarnation: a rebooted host numbers its requests
// from one again, and its station's routed restarts with it; so does the
// mark of a proxy that outlived the reboot, or its first del-pref of the
// new incarnation would cover requests still on their way to it.
func TestMarkRestartsWithIncarnation(t *testing.T) {
	w := edgeWorld()
	mss1 := w.MSSs[1]
	w.AddMH(7, 1)
	w.Run()
	mh := ids.MH(7).Node()
	mss1.process(mh, msg.Request{Req: ids.RequestID{Origin: 7, Seq: 10}, Server: 1, Payload: []byte("q"), Inc: 1})
	mss1.process(mh, msg.Register{MH: 7, Inc: 2})
	mss1.process(mh, msg.Request{Req: ids.RequestID{Origin: 7, Seq: 1}, Server: 1, Payload: []byte("q"), Inc: 2})
	pref, _ := mss1.PrefOf(7)
	p := mss1.ProxyByID(pref.Proxy)
	if p == nil {
		t.Fatalf("pref %v names no proxy here", pref)
	}
	if p.mark != 1 || mss1.peek(7).routed != 1 {
		t.Fatalf("proxy %v: mark %d, routed %d; want both 1", pref.Proxy, p.mark, mss1.peek(7).routed)
	}
}
