package rdpcore

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/netsim"
)

// These tests pin down, as deterministic unit scenarios, the greet
// re-ordering races originally found by TestRandomOpSequences: greets
// sent over different radio links can arrive out of order, letting a
// hand-off chain reach a station before the greet that explains it, or
// a greet reach a station after the registration has moved on.

// TestDeregOvertakesGreetKeepsPref reconstructs the seed-7 scramble:
// the MH migrates A(mss1) -> B(mss2) -> C(mss3) so fast that C's dereg
// reaches B before the MH's greet to B does. B must park the dereg (not
// answer with a fabricated empty pref) so the real proxy reference is
// preserved when its own hand-off completes.
func TestDeregOvertakesGreetKeepsPref(t *testing.T) {
	w := edgeWorld()
	mh := w.AddMH(7, 1)
	var req ids.RequestID
	w.Schedule(0, func() { req = mh.IssueRequest(1, []byte("x")) })
	w.RunUntil(50 * time.Millisecond) // request answered; pref history at mss1

	// Re-issue so a live proxy exists at mss1 during the scramble.
	w.Schedule(0, func() { req = mh.IssueRequest(1, []byte("y")) })
	w.RunUntil(52 * time.Millisecond) // request in flight: proxy pending at mss1

	mss2, mss3 := w.MSSs[2], w.MSSs[3]
	// Scramble: C (mss3) learns of the MH first. It received
	// greet(old=mss2) and deregs mss2 — which knows nothing yet. The MH
	// itself is already in cell 3 and believes in mss3 (it sent both
	// greets; only their arrivals are reordered).
	w.MHs[7].loc = 3
	mh.respMss, mh.seq = 3, 2
	mss3.process(ids.MH(7).Node(), msg.Greet{MH: 7, OldMSS: 2, Seq: 2})
	w.RunUntil(60 * time.Millisecond)
	if w.MSSs[3].Responsible(7) {
		t.Fatal("mss3 registered from a fabricated pref; dereg should be parked at mss2")
	}
	// Now the delayed greet to B (mss2) lands; B hands off from A,
	// registers with the real pref, and serves the parked dereg — the
	// registration (and pref) chain A -> B -> C completes.
	mss2.process(ids.MH(7).Node(), msg.Greet{MH: 7, OldMSS: 1, Seq: 1})
	w.RunUntil(200 * time.Millisecond)

	if !mss3.Responsible(7) {
		t.Fatal("mss3 not registered after the chain settled")
	}
	// Two proxies were created across the two requests; the scramble
	// must not have fabricated a third.
	if got := w.Stats.ProxiesCreated.Value(); got != 2 {
		t.Errorf("ProxiesCreated = %d, want 2 (no fabricated extra proxy)", got)
	}
	w.RunUntil(2 * time.Second)
	if !mh.Seen(req) {
		t.Error("in-flight result lost across the scrambled hand-off chain")
	}
	// The completed request retired its proxy through the scrambled
	// chain: the pref survives the chain and ends empty.
	if pref, ok := mss3.PrefOf(7); !ok || pref.HasProxy() {
		t.Errorf("pref at mss3 = %v,%t; want present and retired", pref, ok)
	}
	if got := w.TotalProxies(); got != 0 {
		t.Errorf("TotalProxies = %d, want 0", got)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestStaleGreetDoesNotDriftRegistration reconstructs the seed-5 race:
// a greet the MH sent for an earlier registration (here: one naming its
// registration at mss1, sequence 0) reaches mss2 while the MH is
// registered at mss1 and stays there. mss2 cannot tell it is stale and
// starts a hand-off, but mss1 holds that very registration and refuses
// the dereg: the registration never drifts to mss2, which ends departed
// toward mss1, and the result in flight is delivered where the MH is.
func TestStaleGreetDoesNotDriftRegistration(t *testing.T) {
	w := edgeWorld()
	mh := w.AddMH(7, 1)
	w.RunUntil(20 * time.Millisecond)

	var req ids.RequestID
	w.Schedule(0, func() { req = mh.IssueRequest(1, []byte("x")) })
	w.RunUntil(30 * time.Millisecond)

	w.MSSs[2].process(ids.MH(7).Node(), msg.Greet{MH: 7, OldMSS: 1})
	w.RunUntil(100 * time.Millisecond)
	if !w.MSSs[1].Responsible(7) || w.MSSs[2].Responsible(7) {
		t.Fatal("the stale greet moved the registration to mss2")
	}
	if h := w.MSSs[2].peek(7); h.arrival() != nil || h.forwardTo != 1 {
		t.Fatalf("mss2: arrival %v, forwardTo %v; want the refused hand-off ended departed toward mss1", h.arrival(), h.forwardTo)
	}
	// The MH (in cell 1, believing respMss=mss1) reactivates in place.
	w.MSSs[1].process(ids.MH(7).Node(), msg.Greet{MH: 7, OldMSS: 1})
	w.RunUntil(3 * time.Second)

	if got := w.Stats.Handoffs.Value(); got != 0 {
		t.Errorf("Handoffs = %d, want 0", got)
	}
	if got := w.Stats.ProxiesCreated.Value(); got != 1 {
		t.Errorf("ProxiesCreated = %d, want 1", got)
	}
	if !mh.Seen(req) {
		t.Error("result not delivered")
	}
	if err := w.CheckQuiescent(); err != nil {
		t.Error(err)
	}
}

// TestStaleGreetUnderRefreshStrandsNothing: with periodic registration
// refresh on (Config.GreetRefresh), a stale greet injected at mss2 while
// a request is being served is refused as above — the registration stays
// with mss1, where the MH is, for the whole run, and the result arrives
// without a beacon having to repair anything.
func TestStaleGreetUnderRefreshStrandsNothing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumMSS = 3
	cfg.WiredLatency = netsim.Constant(time.Millisecond)
	cfg.WirelessLatency = netsim.Constant(time.Millisecond)
	cfg.ServerProc = netsim.Constant(50 * time.Millisecond)
	cfg.GreetRefresh = 500 * time.Millisecond
	w := NewWorld(cfg)
	mh := w.AddMH(7, 1)
	var req ids.RequestID
	w.Schedule(0, func() { req = mh.IssueRequest(1, []byte("x")) })
	w.Schedule(10*time.Millisecond, func() {
		w.MSSs[2].process(ids.MH(7).Node(), msg.Greet{MH: 7, OldMSS: 1})
	})
	var seenAt time.Duration
	for at := 20 * time.Millisecond; at <= 5*time.Second; at += 20 * time.Millisecond {
		w.RunUntil(at)
		if !w.MSSs[1].Responsible(7) || w.MSSs[2].Responsible(7) {
			t.Fatalf("at %v the registration drifted away from mss1", at)
		}
		if seenAt == 0 && mh.Seen(req) {
			seenAt = at
		}
	}
	if seenAt == 0 || seenAt > cfg.GreetRefresh {
		t.Errorf("result seen at %v, want before the first beacon (%v)", seenAt, cfg.GreetRefresh)
	}
	if got := w.Stats.Handoffs.Value(); got != 0 {
		t.Errorf("Handoffs = %d, want 0", got)
	}
	if err := w.CheckQuiescent(); err != nil {
		t.Error(err)
	}
}
