package experiments

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/trace"
)

// TestE12MigrationBoundsHops asserts the headline shapes of E12 at
// SmallScale: hop-threshold migration actually migrates and bounds the
// mean forwarding hops below the fixed proxy's drift; fairness of proxy
// placement beats the static home-agent baseline; and exactly-once
// survives (RDP rows deliver everything with at most stray duplicates).
func TestE12MigrationBoundsHops(t *testing.T) {
	rows := E12Migration(1, SmallScale())
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	byName := make(map[string]E12Row, len(rows))
	for _, r := range rows {
		byName[r.Policy] = r
	}
	fixed := byName["RDP fixed proxy"]
	k1 := byName["RDP hop k=1"]
	mip := byName["MobileIP home=start"]

	for _, r := range rows[:6] { // the RDP variants
		if r.Issued == 0 {
			t.Fatalf("%s: no requests issued", r.Policy)
		}
		if r.Ratio != 1.0 {
			t.Errorf("%s: delivery ratio %.4f, want 1.0 (%d/%d)", r.Policy, r.Ratio, r.Delivered, r.Issued)
		}
		if r.Dups != 0 {
			t.Errorf("%s: %d duplicate deliveries, want 0", r.Policy, r.Dups)
		}
	}
	if fixed.Migrations != 0 || fixed.MigMsgs != 0 {
		t.Errorf("fixed proxy shows migration activity: %d completed, %d messages", fixed.Migrations, fixed.MigMsgs)
	}
	if k1.Migrations == 0 {
		t.Error("hop k=1 completed no migrations; the trigger never fired")
	}
	if k1.MeanHops >= fixed.MeanHops {
		t.Errorf("hop k=1 mean hops %.2f not below fixed proxy's %.2f", k1.MeanHops, fixed.MeanHops)
	}
	if k1.MigMsgs == 0 || k1.MigBytes == 0 {
		t.Error("hop k=1 reports no migration overhead; accounting broken")
	}
	if k1.Jain <= mip.Jain {
		t.Errorf("hop k=1 placement Jain %.3f not above Mobile IP's %.3f", k1.Jain, mip.Jain)
	}
}

// TestMigrationReplayTrace runs the mig1 worked example against the
// expected message sequence: the five-message migration exchange, in
// order, bracketed by the fast result's remote forward (the trigger)
// and the slow result's direct delivery from the migrated proxy.
func TestMigrationReplayTrace(t *testing.T) {
	rec := trace.New()
	w := replay(t, "mig1", rec)

	if got := w.Stats.ResultsDelivered.Value(); got != 2 {
		t.Fatalf("ResultsDelivered = %d, want 2", got)
	}
	if got := w.Stats.DuplicateDeliveries.Value(); got != 0 {
		t.Fatalf("DuplicateDeliveries = %d, want 0", got)
	}
	if got := w.Stats.MigCompleted.Value(); got != 1 {
		t.Fatalf("MigCompleted = %d, want 1", got)
	}

	mss1, mss2 := ids.MSS(1).Node(), ids.MSS(2).Node()
	srv := ids.Server(1).Node()
	steps := []trace.Step{
		// The fast result crosses mss1 -> mss2: the remote forward that
		// fires the hop trigger.
		{Kind: msg.KindResultForward, From: mss1, To: mss2, Note: "remote forward (trigger)"},
		{Kind: msg.KindMigOffer, From: mss1, To: mss2, Note: "old host offers the proxy"},
		{Kind: msg.KindMigCommit, From: mss2, To: mss1, Note: "target accepts and reserves"},
		{Kind: msg.KindMigState, From: mss1, To: mss2, Note: "full proxy state moves"},
		{Kind: msg.KindPrefRedirect, From: mss2, To: srv, Note: "pending server learns the new pref",
			Check: func(m msg.Message) bool { return !m.(msg.PrefRedirect).Confirm }},
		{Kind: msg.KindPrefRedirect, From: srv, To: mss1, Note: "server confirm unblocks the tombstone",
			Check: func(m msg.Message) bool { return m.(msg.PrefRedirect).Confirm }},
		// The slow result now takes the direct path to the migrated proxy.
		{Kind: msg.KindServerResult, From: srv, To: mss2, Note: "slow reply to the new home"},
		{Kind: msg.KindMigGC, From: mss1, To: mss2, Note: "tombstone collected"},
	}
	if err := rec.ExpectSequence(steps); err != nil {
		t.Error(err)
	}
}
