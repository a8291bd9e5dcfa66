package rdpcore

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// scriptedProc replays a fixed sequence of processing delays, then zero.
type scriptedProc struct {
	delays []time.Duration
	i      int
}

func (s *scriptedProc) Sample(*sim.RNG) time.Duration {
	if s.i < len(s.delays) {
		d := s.delays[s.i]
		s.i++
		return d
	}
	return 0
}

func (s *scriptedProc) Mean() time.Duration { return 0 }

// figureWorld builds the 3-station, 1-server world used by the paper's
// worked examples, with deterministic latencies: 5ms wired, 10ms
// wireless. The trace recorder observes both substrates.
func figureWorld(t *testing.T, proc netsim.LatencyModel) (*World, *trace.Recorder) {
	t.Helper()
	rec := trace.New()
	cfg := DefaultConfig()
	cfg.NumMSS = 3
	cfg.WiredLatency = netsim.Constant(5 * time.Millisecond)
	cfg.WirelessLatency = netsim.Constant(10 * time.Millisecond)
	cfg.ServerProc = proc
	cfg.Observer = rec.Observe
	return NewWorld(cfg), rec
}

// TestScenarioFigure3 reproduces Figure 3 of the paper: a single request
// issued at MssP, the MH migrating to MssO and then MssN while the
// result is in flight. The proxy's first forward (to MssO) is lost
// because the MH has moved on; the update_currentLoc from MssN triggers
// the retransmission that finally delivers, and the Ack with del-proxy
// deletes the proxy.
//
// Cast: mssP = mss1 (proxy host), mssO = mss2, mssN = mss3, mh1, srv1.
func TestScenarioFigure3(t *testing.T) {
	w, rec := figureWorld(t, netsim.Constant(100*time.Millisecond))
	var (
		mssP = ids.MSS(1)
		mssO = ids.MSS(2)
		mssN = ids.MSS(3)
		srv  = ids.Server(1)
	)
	mh := w.AddMH(1, mssP)

	// t=0: request issued at MssP (reaches it at 10ms; server reply
	// ready at 115ms, back at proxy at 120ms).
	var req ids.RequestID
	w.Kernel.Defer(0, func() { req = mh.IssueRequest(srv, []byte("q")) })
	// t=20ms: migrate to MssO (hand-off completes ~40ms; update_currl
	// reaches the proxy at 45ms).
	w.Kernel.Defer(20*time.Millisecond, func() { w.Migrate(1, mssO) })
	// t=126ms: migrate to MssN just after the proxy forwarded the result
	// to MssO (125ms) but before MssO's wireless delivery lands (135ms),
	// so the first delivery attempt is lost.
	w.Kernel.Defer(126*time.Millisecond, func() { w.Migrate(1, mssN) })

	w.RunUntil(2 * time.Second)

	steps := []trace.Step{
		{Kind: msg.KindRequest, From: ids.MH(1).Node(), To: mssP.Node(), Note: "request at MssP"},
		{Kind: msg.KindServerRequest, From: mssP.Node(), To: srv.Node()},
		{Kind: msg.KindGreet, To: mssO.Node(), Note: "greet MssO"},
		{Kind: msg.KindDereg, From: mssO.Node(), To: mssP.Node()},
		{Kind: msg.KindDeregAck, From: mssP.Node(), To: mssO.Node(),
			Check: func(m msg.Message) bool { return m.(msg.DeregAck).Pref.HasProxy() },
			Note:  "pref handed over"},
		{Kind: msg.KindUpdateCurrentLoc, From: mssO.Node(), To: mssP.Node()},
		{Kind: msg.KindServerResult, From: srv.Node(), To: mssP.Node()},
		{Kind: msg.KindResultForward, From: mssP.Node(), To: mssO.Node(),
			Check: func(m msg.Message) bool { return m.(msg.ResultForward).DelPref },
			Note:  "first forward, del-pref, lost on wireless"},
		{Kind: msg.KindGreet, To: mssN.Node(), Note: "greet MssN"},
		{Kind: msg.KindDereg, From: mssN.Node(), To: mssO.Node()},
		{Kind: msg.KindDeregAck, From: mssO.Node(), To: mssN.Node()},
		{Kind: msg.KindUpdateCurrentLoc, From: mssN.Node(), To: mssP.Node()},
		{Kind: msg.KindResultForward, From: mssP.Node(), To: mssN.Node(),
			Check: func(m msg.Message) bool { return m.(msg.ResultForward).DelPref },
			Note:  "retransmission to MssN"},
		{Kind: msg.KindResultDeliver, From: mssN.Node(), To: ids.MH(1).Node(), Note: "delivered"},
		{Kind: msg.KindAckMH, From: ids.MH(1).Node(), To: mssN.Node()},
		{Kind: msg.KindAckForward, From: mssN.Node(), To: mssP.Node(),
			Check: func(m msg.Message) bool { return m.(msg.AckForward).DelProxy },
			Note:  "ack with del-proxy"},
	}
	if err := rec.ExpectSequence(steps); err != nil {
		t.Fatal(err)
	}

	if !mh.Seen(req) {
		t.Error("result never delivered to the MH")
	}
	if got := w.Stats.ResultsDelivered.Value(); got != 1 {
		t.Errorf("ResultsDelivered = %d, want 1", got)
	}
	if got := w.Stats.DuplicateDeliveries.Value(); got != 0 {
		t.Errorf("DuplicateDeliveries = %d, want 0", got)
	}
	if got := w.Stats.Retransmissions.Value(); got != 1 {
		t.Errorf("Retransmissions = %d, want exactly 1 (the MssO forward was lost)", got)
	}
	if got := w.TotalProxies(); got != 0 {
		t.Errorf("TotalProxies = %d, want 0 after del-proxy", got)
	}
	if pref, ok := w.MSSs[mssN].PrefOf(1); !ok || pref.HasProxy() {
		t.Errorf("pref at MssN = %v,%t; want present and empty", pref, ok)
	}
	if got := w.Stats.ProxiesCreated.Value(); got != 1 {
		t.Errorf("ProxiesCreated = %d, want 1", got)
	}
	if got := w.Stats.ProxiesDeleted.Value(); got != 1 {
		t.Errorf("ProxiesDeleted = %d, want 1", got)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestScenarioFigure4 reproduces Figure 4: three overlapping requests
// through one proxy, the RKpR flag being re-armed and cleared, the
// del-pref-only special message, and final proxy deletion on AckC.
//
// Cast: mssP = mss1 (proxy host), mss = mss2, mh1, srv1. Server
// processing times are scripted per request: A=30ms, B=60ms, C=55ms,
// which yields the paper's event order (see DESIGN.md F4).
func TestScenarioFigure4(t *testing.T) {
	proc := &scriptedProc{delays: []time.Duration{30 * time.Millisecond, 60 * time.Millisecond, 55 * time.Millisecond}}
	w, rec := figureWorld(t, proc)
	var (
		mssP = ids.MSS(1)
		mss2 = ids.MSS(2)
		srv  = ids.Server(1)
	)
	mh := w.AddMH(1, mssP)

	var reqA, reqB, reqC ids.RequestID
	w.Kernel.Defer(0, func() { reqA = mh.IssueRequest(srv, []byte("A")) })
	// t=20ms: migrate to mss2; hand-off completes by 40ms.
	w.Kernel.Defer(20*time.Millisecond, func() { w.Migrate(1, mss2) })
	// resultA delivered to the MH at 65ms; requestB is issued at 60ms so
	// it reaches mss2 (70ms) before AckA does (75ms) — the paper's
	// "issues a new requestB before sending an Ack for resultA" race.
	w.Kernel.Defer(60*time.Millisecond, func() { reqB = mh.IssueRequest(srv, []byte("B")) })
	w.Kernel.Defer(80*time.Millisecond, func() { reqC = mh.IssueRequest(srv, []byte("C")) })

	w.RunUntil(2 * time.Second)

	steps := []trace.Step{
		// requestA creates the proxy at MssP and goes to the server.
		{Kind: msg.KindServerRequest, From: mssP.Node(), To: srv.Node()},
		// Hand-off to mss2.
		{Kind: msg.KindDeregAck, From: mssP.Node(), To: mss2.Node()},
		{Kind: msg.KindUpdateCurrentLoc, From: mss2.Node(), To: mssP.Node()},
		// resultA forwarded with del-pref (only pending request).
		{Kind: msg.KindResultForward, From: mssP.Node(), To: mss2.Node(),
			Check: func(m msg.Message) bool {
				v := m.(msg.ResultForward)
				return v.DelPref && string(v.Payload) == "re:A"
			},
			Note: "resultA del-pref"},
		{Kind: msg.KindResultDeliver, To: ids.MH(1).Node(),
			Check: func(m msg.Message) bool { return string(m.(msg.ResultDeliver).Payload) == "re:A" }},
		// requestB reaches mss2 before AckA, clearing RKpR...
		{Kind: msg.KindRequestForward, From: mss2.Node(), To: mssP.Node(),
			Check: func(m msg.Message) bool { return string(m.(msg.RequestForward).Payload) == "B" }},
		// ...so AckA travels with del-proxy=false and the proxy survives.
		{Kind: msg.KindAckForward, From: mss2.Node(), To: mssP.Node(),
			Check: func(m msg.Message) bool {
				v := m.(msg.AckForward)
				return !v.DelProxy
			},
			Note: "AckA, del-proxy=false"},
		// requestC joins the requestList.
		{Kind: msg.KindRequestForward, From: mss2.Node(), To: mssP.Node(),
			Check: func(m msg.Message) bool { return string(m.(msg.RequestForward).Payload) == "C" }},
		// resultB forwarded without del-pref (B and C both pending).
		{Kind: msg.KindResultForward, From: mssP.Node(), To: mss2.Node(),
			Check: func(m msg.Message) bool {
				v := m.(msg.ResultForward)
				return !v.DelPref && string(v.Payload) == "re:B"
			},
			Note: "resultB, no del-pref"},
		// resultC forwarded without del-pref (AckB not yet at proxy).
		{Kind: msg.KindResultForward, From: mssP.Node(), To: mss2.Node(),
			Check: func(m msg.Message) bool {
				v := m.(msg.ResultForward)
				return !v.DelPref && string(v.Payload) == "re:C"
			},
			Note: "resultC, no del-pref"},
		// AckB reaches the proxy; only C pending, already forwarded ->
		// the Fig. 4 special del-pref-only message.
		{Kind: msg.KindAckForward, From: mss2.Node(), To: mssP.Node(),
			Check: func(m msg.Message) bool { return !m.(msg.AckForward).DelProxy },
			Note:  "AckB"},
		{Kind: msg.KindDelPrefOnly, From: mssP.Node(), To: mss2.Node(), Note: "special del-pref message"},
		// AckC finally confirms removal.
		{Kind: msg.KindAckForward, From: mss2.Node(), To: mssP.Node(),
			Check: func(m msg.Message) bool { return m.(msg.AckForward).DelProxy },
			Note:  "AckC, del-proxy"},
	}
	if err := rec.ExpectSequence(steps); err != nil {
		t.Fatal(err)
	}

	for _, req := range []ids.RequestID{reqA, reqB, reqC} {
		if !mh.Seen(req) {
			t.Errorf("result of %v not delivered", req)
		}
	}
	if got := w.Stats.ResultsDelivered.Value(); got != 3 {
		t.Errorf("ResultsDelivered = %d, want 3", got)
	}
	if got := w.Stats.DuplicateDeliveries.Value(); got != 0 {
		t.Errorf("DuplicateDeliveries = %d, want 0", got)
	}
	if got := w.Stats.ProxiesCreated.Value(); got != 1 {
		t.Errorf("ProxiesCreated = %d, want 1 (one proxy serves all three requests)", got)
	}
	if got := w.TotalProxies(); got != 0 {
		t.Errorf("TotalProxies = %d, want 0", got)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestScenarioFigure4AlternativeEnding exercises the final paragraph of
// §3.4: if the del-pref-only message arrives at the respMss after AckC
// has already been relayed, RKpR is still false when AckC passes
// through, del-proxy stays false, and the proxy survives — to be reused
// by the MH's next request.
func TestScenarioFigure4AlternativeEnding(t *testing.T) {
	// Per-request processing: A=30ms, B=80ms, C=68ms. resultC is
	// delivered 8ms after resultB, so AckC reaches mss2 (198ms) after
	// AckB reached the proxy (195ms) but before the del-pref-only
	// message lands there (200ms) — the exact race of §3.4's closing
	// paragraph.
	proc := &scriptedProc{delays: []time.Duration{30 * time.Millisecond, 80 * time.Millisecond, 68 * time.Millisecond}}
	w, rec := figureWorld(t, proc)
	var (
		mssP = ids.MSS(1)
		mss2 = ids.MSS(2)
		srv  = ids.Server(1)
	)
	mh := w.AddMH(1, mssP)

	var reqD ids.RequestID
	w.Kernel.Defer(0, func() { mh.IssueRequest(srv, []byte("A")) })
	w.Kernel.Defer(20*time.Millisecond, func() { w.Migrate(1, mss2) })
	w.Kernel.Defer(60*time.Millisecond, func() { mh.IssueRequest(srv, []byte("B")) })
	w.Kernel.Defer(80*time.Millisecond, func() { mh.IssueRequest(srv, []byte("C")) })
	w.RunUntil(1 * time.Second)

	// The del-pref-only message was sent but arrived with RKpR disarmed
	// by then-newer traffic, or after the last ack: the proxy survives.
	if got := rec.CountDelivered(msg.KindDelPrefOnly); got != 1 {
		t.Fatalf("DelPrefOnly deliveries = %d, want 1", got)
	}
	if got := w.TotalProxies(); got != 1 {
		t.Fatalf("TotalProxies = %d, want 1 (proxy must survive)", got)
	}
	pref, ok := w.MSSs[mss2].PrefOf(1)
	if !ok || !pref.HasProxy() {
		t.Fatalf("pref at mss2 = %v,%t; want a live proxy reference", pref, ok)
	}

	// The surviving proxy serves the next request, and a fresh
	// del-pref/ack round finally deletes it.
	w.Kernel.Defer(0, func() { reqD = mh.IssueRequest(srv, []byte("D")) })
	w.RunUntil(2 * time.Second)
	if !mh.Seen(reqD) {
		t.Error("request D not answered by the surviving proxy")
	}
	if got := w.Stats.ProxiesCreated.Value(); got != 1 {
		t.Errorf("ProxiesCreated = %d, want 1 (no second proxy)", got)
	}
	if got := w.TotalProxies(); got != 0 {
		t.Errorf("TotalProxies = %d, want 0 after D's ack", got)
	}
	if got := w.Stats.DuplicateDeliveries.Value(); got != 0 {
		t.Errorf("DuplicateDeliveries = %d, want 0", got)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
