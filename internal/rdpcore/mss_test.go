package rdpcore

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/netsim"
)

// edgeWorld returns a world whose kernel is driven manually; tests poke
// MSS nodes through their message handlers directly.
func edgeWorld() *World {
	cfg := DefaultConfig()
	cfg.NumMSS = 3
	cfg.WiredLatency = netsim.Constant(time.Millisecond)
	cfg.WirelessLatency = netsim.Constant(time.Millisecond)
	cfg.ServerProc = netsim.Constant(time.Millisecond)
	return NewWorld(cfg)
}

func TestDeregForUnknownMHParksUntilGreetOrJoin(t *testing.T) {
	// A dereg names this station as the MH's previous respMss, so if the
	// station knows nothing about the MH its own greet must still be in
	// flight: the dereg parks instead of fabricating an empty pref.
	w := edgeWorld()
	mss1 := w.MSSs[1]
	mss1.process(ids.MSS(2).Node(), msg.Dereg{MH: 42, NewMSS: 2, Seq: 1})
	w.Run()
	if w.MSSs[2].Responsible(42) {
		t.Fatal("dereg must not be answered while the MH is unknown")
	}
	// The MH's join lands (the overtaken knowledge catches up); the
	// parked dereg is then served with the (empty) fresh registration.
	mss1.process(ids.MH(42).Node(), msg.Join{MH: 42})
	w.Run()
	if !w.MSSs[2].Responsible(42) {
		t.Error("mss2 should register the MH once the parked dereg is served")
	}
	if mss1.Responsible(42) {
		t.Error("mss1 should have handed responsibility over")
	}
	pref, ok := w.MSSs[2].PrefOf(42)
	if !ok || pref.HasProxy() {
		t.Errorf("pref = %v,%t; want present and empty", pref, ok)
	}
}

func TestUpdateCurrentLocForDeadProxyIsOrphan(t *testing.T) {
	w := edgeWorld()
	mss1 := w.MSSs[1]
	mss1.process(ids.MSS(2).Node(), msg.UpdateCurrentLoc{
		Proxy: ids.ProxyID{Host: 1, Seq: 99}, MH: 7, NewLoc: 2,
	})
	if got := w.Stats.OrphanMessages.Value(); got != 1 {
		t.Errorf("OrphanMessages = %d, want 1", got)
	}
}

func TestAckForwardForDeadProxyIsOrphan(t *testing.T) {
	w := edgeWorld()
	w.MSSs[1].process(ids.MSS(2).Node(), msg.AckForward{
		Proxy: ids.ProxyID{Host: 1, Seq: 99}, MH: 7,
		Req: ids.RequestID{Origin: 7, Seq: 1}, DelProxy: true,
	})
	if got := w.Stats.OrphanMessages.Value(); got != 1 {
		t.Errorf("OrphanMessages = %d, want 1", got)
	}
}

func TestServerResultForDeadProxyIsOrphan(t *testing.T) {
	w := edgeWorld()
	w.MSSs[1].process(ids.Server(1).Node(), msg.ServerResult{
		Proxy: ids.ProxyID{Host: 1, Seq: 99},
		Req:   ids.RequestID{Origin: 7, Seq: 1},
	})
	if got := w.Stats.OrphanMessages.Value(); got != 1 {
		t.Errorf("OrphanMessages = %d, want 1", got)
	}
}

func TestRequestForwardForDeadProxyIsOrphan(t *testing.T) {
	w := edgeWorld()
	w.MSSs[1].process(ids.MSS(2).Node(), msg.RequestForward{
		Proxy: ids.ProxyID{Host: 1, Seq: 99},
		Req:   ids.RequestID{Origin: 7, Seq: 1},
	})
	if got := w.Stats.OrphanMessages.Value(); got != 1 {
		t.Errorf("OrphanMessages = %d, want 1", got)
	}
}

func TestDelPrefOnlyWithMismatchedProxyIgnored(t *testing.T) {
	w := edgeWorld()
	mss1 := w.MSSs[1]
	w.AddMH(7, 1)
	w.Run() // join settles
	// A del-pref for a proxy the pref does not reference must not arm RKpR.
	mss1.process(ids.MSS(2).Node(), msg.DelPrefOnly{
		Proxy: ids.ProxyID{Host: 2, Seq: 5}, MH: 7,
	})
	pref, _ := mss1.PrefOf(7)
	if pref.RKpR != 0 {
		t.Error("RKpR armed by a mismatched del-pref")
	}
	if got := w.Stats.OrphanMessages.Value(); got != 1 {
		t.Errorf("OrphanMessages = %d, want 1", got)
	}
}

func TestResultForwardWithMismatchedProxyDoesNotArmRKpR(t *testing.T) {
	w := edgeWorld()
	mss1 := w.MSSs[1]
	w.AddMH(7, 1)
	w.Run()
	mss1.process(ids.MSS(2).Node(), msg.ResultForward{
		Proxy:   ids.ProxyID{Host: 2, Seq: 5},
		MH:      7,
		Req:     ids.RequestID{Origin: 7, Seq: 1},
		Payload: []byte("r"),
		DelPref: true,
	})
	pref, _ := mss1.PrefOf(7)
	if pref.RKpR != 0 {
		t.Error("RKpR armed by a result for a proxy the pref does not hold")
	}
}

func TestStaleResultForwardStillAttemptsWireless(t *testing.T) {
	// §3.1: the proxy forwards "even if in the meantime MH has migrated";
	// the stale station attempts exactly one wireless forward. The MH is
	// not in its cell, so the frame drops.
	w := edgeWorld()
	w.AddMH(7, 2)
	w.Run()
	w.MSSs[1].process(ids.MSS(3).Node(), msg.ResultForward{
		Proxy:   ids.ProxyID{Host: 3, Seq: 1},
		MH:      7,
		Req:     ids.RequestID{Origin: 7, Seq: 1},
		Payload: []byte("r"),
	})
	w.Run()
	if got := w.Stats.WirelessDrops.Value(); got != 1 {
		t.Errorf("WirelessDrops = %d, want 1 (single stale attempt)", got)
	}
}

func TestDuplicateGreetDuringHandoffIgnored(t *testing.T) {
	w := edgeWorld()
	w.AddMH(7, 1)
	w.Run()
	mss2 := w.MSSs[2]
	// Two greets for one registration before the hand-off completes (a
	// beacon's repeat): only one dereg may flow, and the repeat asks for
	// nothing the hand-off will not do.
	mss2.process(ids.MH(7).Node(), msg.Greet{MH: 7, OldMSS: 1, Seq: 1})
	mss2.process(ids.MH(7).Node(), msg.Greet{MH: 7, OldMSS: 1, Seq: 1})
	if arr := mss2.peek(7).arrival(); arr == nil || arr.seq != 1 || len(arr.deferred) != 0 {
		t.Fatalf("arrival = %+v, want one pending hand-off for registration 1 and nothing deferred", arr)
	}
}

func TestRequestBufferedDuringHandoff(t *testing.T) {
	w := edgeWorld()
	w.AddMH(7, 1)
	w.Run()
	mss2 := w.MSSs[2]
	mss2.process(ids.MH(7).Node(), msg.Greet{MH: 7, OldMSS: 1, Seq: 1})
	// Request lands while the dereg/deregack exchange is still pending.
	mss2.process(ids.MH(7).Node(), msg.Request{
		Req: ids.RequestID{Origin: 7, Seq: 1}, Server: 1, Payload: []byte("q"),
	})
	if got := len(mss2.peek(7).arrival().buffered); got != 1 {
		t.Fatalf("buffered = %d, want 1", got)
	}
	w.MHs[7].loc = 2 // ground truth catches up with the greet
	w.Run()
	// After deregack the buffered request proceeds: a proxy now exists.
	if mss2.HostedProxies() != 1 {
		t.Errorf("HostedProxies = %d, want 1 after buffered request ran", mss2.HostedProxies())
	}
}

func TestLateRequestFollowsForwardingChain(t *testing.T) {
	// A request delivered to a station after it de-registered the MH is
	// forwarded along the hand-off chain instead of being dropped.
	w := edgeWorld()
	w.AddMH(7, 1)
	w.Run()
	mss1 := w.MSSs[1]
	// Hand-off 1 -> 2 completes.
	w.Migrate(7, 2)
	w.Run()
	if mss1.Responsible(7) {
		t.Fatal("mss1 still responsible after hand-off")
	}
	// A stale request (sent before the migration) now arrives at mss1.
	mss1.process(ids.MH(7).Node(), msg.Request{
		Req: ids.RequestID{Origin: 7, Seq: 9}, Server: 1, Payload: []byte("late"),
	})
	w.Run()
	if got := w.Stats.OrphanMessages.Value(); got != 0 {
		t.Errorf("OrphanMessages = %d, want 0 (request must be forwarded)", got)
	}
	// The drained run completes the whole request cycle: the forwarded
	// request created a proxy at mss2 and its result was delivered and
	// acknowledged, retiring the proxy again.
	if got := w.Stats.ProxyCreations[2]; got != 1 {
		t.Errorf("proxy creations at mss2 = %d, want 1 (forwarded request served)", got)
	}
	if got := w.Stats.ResultsDelivered.Value(); got != 1 {
		t.Errorf("ResultsDelivered = %d, want 1", got)
	}
}

func TestIgnoredAckAfterDereg(t *testing.T) {
	w := edgeWorld()
	w.AddMH(7, 1)
	w.Run()
	mss1 := w.MSSs[1]
	w.Migrate(7, 2)
	w.Run()
	mss1.process(ids.MH(7).Node(), msg.AckMH{MH: 7, Req: ids.RequestID{Origin: 7, Seq: 1}})
	if got := w.Stats.IgnoredAcks.Value(); got != 1 {
		t.Errorf("IgnoredAcks = %d, want 1", got)
	}
}

func TestReactivationGreetFromUnknownMHRegisters(t *testing.T) {
	// Defensive path: a same-cell greet from an MH the station does not
	// know registers it like a join rather than crashing.
	w := edgeWorld()
	w.MSSs[1].process(ids.MH(9).Node(), msg.Greet{MH: 9, OldMSS: 1})
	if !w.MSSs[1].Responsible(9) {
		t.Error("unknown reactivating MH not registered")
	}
}

func TestProxyByIDWrongHost(t *testing.T) {
	w := edgeWorld()
	if p := w.MSSs[1].ProxyByID(ids.ProxyID{Host: 2, Seq: 1}); p != nil {
		t.Error("ProxyByID must reject foreign hosts")
	}
}

func TestUnknownMessageKindIsOrphan(t *testing.T) {
	w := edgeWorld()
	w.MSSs[1].process(ids.MSS(2).Node(), msg.MIPRegister{MH: 1, CareOf: 2})
	if got := w.Stats.OrphanMessages.Value(); got != 1 {
		t.Errorf("OrphanMessages = %d, want 1", got)
	}
}
