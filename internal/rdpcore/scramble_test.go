package rdpcore

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/netsim"
)

// These tests pin down, as deterministic unit scenarios, the two greet
// re-ordering races originally found by TestRandomOpSequences: greets
// sent over different radio links can arrive out of order, letting a
// hand-off chain reach a station before the greet that explains it.

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
	mh.respMss = 3
	mss3.process(ids.MH(7).Node(), msg.Greet{MH: 7, OldMSS: 2})
	w.RunUntil(60 * time.Millisecond)
	if w.MSSs[3].Responsible(7) {
		t.Fatal("mss3 registered from a fabricated pref; dereg should be parked at mss2")
	}
	// Now the delayed greet to B (mss2) lands; B hands off from A,
	// registers with the real pref, and serves the parked dereg — the
	// registration (and pref) chain A -> B -> C completes.
	mss2.process(ids.MH(7).Node(), msg.Greet{MH: 7, OldMSS: 1})
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

// TestReactivationFetchesDriftedRegistration reconstructs the seed-5
// aftermath: the registration drifted to a station (mss2) other than
// the one the MH believes in (mss1). A reactivation greet at mss1 must
// fetch the registration back through the forwarding pointer instead of
// fabricating a fresh one.
func TestReactivationFetchesDriftedRegistration(t *testing.T) {
	w := edgeWorld()
	mh := w.AddMH(7, 1)
	w.RunUntil(20 * time.Millisecond)

	// Issue a request whose result will strand at the drifted station.
	cfgServerSlow(w)
	var req ids.RequestID
	w.Schedule(0, func() { req = mh.IssueRequest(1, []byte("x")) })
	w.RunUntil(30 * time.Millisecond)

	// Force the drift: mss2 deregs mss1 directly (as a scrambled chain
	// would), so mss2 becomes responsible while the MH still believes in
	// mss1.
	w.MSSs[2].process(ids.MH(7).Node(), msg.Greet{MH: 7, OldMSS: 1})
	w.RunUntil(100 * time.Millisecond)
	if !w.MSSs[2].Responsible(7) || w.MSSs[1].Responsible(7) {
		t.Fatal("setup failed: registration did not drift to mss2")
	}
	// The MH (physically in cell 1, believing respMss=mss1) reactivates.
	w.MSSs[1].process(ids.MH(7).Node(), msg.Greet{MH: 7, OldMSS: 1})
	w.RunUntil(3 * time.Second)

	if !w.MSSs[1].Responsible(7) {
		t.Fatal("reactivation did not fetch the drifted registration back")
	}
	if w.MSSs[2].Responsible(7) {
		t.Error("mss2 still responsible after the fetch-back")
	}
	if got := w.Stats.ProxiesCreated.Value(); got != 1 {
		t.Errorf("ProxiesCreated = %d, want 1", got)
	}
	if !mh.Seen(req) {
		t.Error("stranded result not delivered after the fetch-back")
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// cfgServerSlow makes in-flight results linger long enough for the
// scramble scenarios to race them (test helper mutating the live world's
// server processing model is not possible; instead we rely on the
// default 50ms processing of edgeWorld — this helper documents intent).
func cfgServerSlow(*World) {}

// TestGreetRefreshRecoversStrandedResult verifies Config.GreetRefresh:
// with periodic registration refresh, even an MH that never migrates or
// sleeps again recovers results stranded by a drifted registration.
func TestGreetRefreshRecoversStrandedResult(t *testing.T) {
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
	// Drift the registration away while the request is being served; the
	// MH stays put and issues nothing else.
	w.Schedule(10*time.Millisecond, func() {
		w.MSSs[2].process(ids.MH(7).Node(), msg.Greet{MH: 7, OldMSS: 1})
	})
	w.RunUntil(5 * time.Second)
	if !mh.Seen(req) {
		t.Fatal("refresh beacons did not recover the stranded result")
	}
	if !w.MSSs[1].Responsible(7) {
		t.Error("registration not reconciled to the MH's actual cell")
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
