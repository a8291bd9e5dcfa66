package rdpcore

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/netsim"
)

// proxyFixture builds a world with one pending request so its proxy can
// be poked directly.
func proxyFixture(t *testing.T) (*World, *Proxy, ids.RequestID) {
	t.Helper()
	w := quickWorld(func(c *Config) { c.ServerProc = netsim.Constant(10 * time.Second) })
	mh := w.AddMH(1, 1)
	var req ids.RequestID
	w.Schedule(0, func() { req = mh.IssueRequest(1, []byte("x")) })
	w.RunUntil(100 * time.Millisecond)
	pref, ok := w.MSSs[1].PrefOf(1)
	if !ok || !pref.HasProxy() {
		t.Fatal("fixture: no proxy created")
	}
	p := w.MSSs[1].ProxyByID(pref.Proxy)
	if p == nil {
		t.Fatal("fixture: proxy not hosted")
	}
	return w, p, req
}

func TestProxyAccessors(t *testing.T) {
	w, p, _ := proxyFixture(t)
	if p.MH() != 1 {
		t.Errorf("MH = %v, want mh1", p.MH())
	}
	if p.CurrentLoc() != 1 {
		t.Errorf("CurrentLoc = %v, want mss1", p.CurrentLoc())
	}
	if p.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", p.Pending())
	}
	_ = w
}

func TestProxyDuplicateServerResultIgnored(t *testing.T) {
	w, p, req := proxyFixture(t)
	p.onServerResult(req, []byte("first"))
	forwards := w.Stats.ResultForwards[1]
	p.onServerResult(req, []byte("second"))
	if got := w.Stats.ResultForwards[1]; got != forwards {
		t.Errorf("duplicate server result triggered a forward (%d -> %d)", forwards, got)
	}
	// The stored copy is the first one.
	w.RunUntil(time.Second)
	if got := w.Stats.ResultsDelivered.Value(); got != 1 {
		t.Fatalf("delivered %d, want 1", got)
	}
}

func TestProxyLateServerResultIsOrphan(t *testing.T) {
	w, p, req := proxyFixture(t)
	p.onServerResult(req, []byte("r"))
	w.RunUntil(time.Second) // delivered + acked: request removed
	if p.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", p.Pending())
	}
	before := w.Stats.OrphanMessages.Value()
	p.onServerResult(req, []byte("late"))
	if got := w.Stats.OrphanMessages.Value(); got != before+1 {
		t.Errorf("late server result not counted as orphan")
	}
}

func TestProxyAckForUnknownRequestHarmless(t *testing.T) {
	w, p, _ := proxyFixture(t)
	if deleted := p.onAck(ids.RequestID{Origin: 1, Seq: 99}, false); deleted {
		t.Error("unknown ack deleted the proxy")
	}
	if got := w.Stats.Violations.Value(); got != 0 {
		t.Errorf("Violations = %d", got)
	}
	if p.Pending() != 1 {
		t.Errorf("Pending = %d, want 1 (real request untouched)", p.Pending())
	}
}

func TestProxyRetryReforwardsStoredResult(t *testing.T) {
	// addRequest with a known id re-forwards the stored result instead of
	// re-asking the server — the path that saves a stationary client
	// whose wireless delivery was lost.
	w, p, req := proxyFixture(t)
	p.onServerResult(req, []byte("r"))
	forwards := w.Stats.ResultForwards[1]
	served := w.Servers[1].Served.Value()
	p.addRequest(req, 1, []byte("x"), 0, p.host.id) // client retry arrives
	if got := w.Stats.ResultForwards[1]; got != forwards+1 {
		t.Errorf("retry did not re-forward the stored result (%d -> %d)", forwards, got)
	}
	w.RunUntil(2 * time.Second)
	if got := w.Servers[1].Served.Value(); got != served {
		t.Errorf("retry re-issued the request to the server")
	}
}

func TestProxyRetryBeforeResultIsNoop(t *testing.T) {
	w, p, req := proxyFixture(t)
	forwards := w.Stats.ResultForwards[1]
	p.addRequest(req, 1, []byte("x"), 0, p.host.id)
	if got := w.Stats.ResultForwards[1]; got != forwards {
		t.Error("retry before the result forwarded something")
	}
	if p.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", p.Pending())
	}
	_ = req
}

func TestProxyDelPrefOnlyRequiresForwardedResult(t *testing.T) {
	// The Fig. 4 special message fires only when the sole remaining
	// pending request's result has already been forwarded.
	w := quickWorld(func(c *Config) { c.ServerProc = netsim.Constant(10 * time.Second) })
	mh := w.AddMH(1, 1)
	var r1, r2 ids.RequestID
	w.Schedule(0, func() {
		r1 = mh.IssueRequest(1, []byte("a"))
		r2 = mh.IssueRequest(1, []byte("b"))
	})
	w.RunUntil(100 * time.Millisecond)
	pref, _ := w.MSSs[1].PrefOf(1)
	p := w.MSSs[1].ProxyByID(pref.Proxy)
	if p == nil || p.Pending() != 2 {
		t.Fatal("fixture: want 2 pending requests")
	}
	// Ack r1 while r2 has no result yet: no del-pref-only may be sent,
	// so RKpR stays clear.
	p.onAck(r1, false)
	w.RunUntil(200 * time.Millisecond)
	if pref2, _ := w.MSSs[1].PrefOf(1); pref2.RKpR != 0 {
		t.Error("RKpR armed although the remaining result was never forwarded")
	}
	_ = r2
}
