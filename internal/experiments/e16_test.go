package experiments

import "testing"

// TestE16QuickSweep runs the quick-scale E16 tier in both
// representations and enforces the experiment's gates: perfect paired
// delivery (the guard that licenses the headline ratio), zero
// duplicates, shared proxies engaging
// only on the aggregated row, and the state reduction itself.
func TestE16QuickSweep(t *testing.T) {
	rows := E16Aggregation(1, SmallScale())
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want a faithful/aggregated pair", len(rows))
	}
	f, a := rows[0], rows[1]
	if f.Aggregated || !a.Aggregated {
		t.Fatalf("row order: got aggregated=%v,%v, want false,true", f.Aggregated, a.Aggregated)
	}
	for _, r := range rows {
		if r.Missing != 0 {
			t.Errorf("aggregated=%v: %d undelivered requests", r.Aggregated, r.Missing)
		}
		if r.Duplicates != 0 {
			t.Errorf("aggregated=%v: %d duplicate deliveries", r.Aggregated, r.Duplicates)
		}
		if r.Issued == 0 || r.Delivered != r.Issued {
			t.Errorf("aggregated=%v: issued=%d delivered=%d, want equal and non-zero",
				r.Aggregated, r.Issued, r.Delivered)
		}
		if r.Handoffs == 0 {
			t.Errorf("aggregated=%v: no hand-offs; the migration wave never ran", r.Aggregated)
		}
		if r.StateBytes <= 0 {
			t.Errorf("aggregated=%v: StateBytes = %d, want > 0", r.Aggregated, r.StateBytes)
		}
	}
	if f.Delivered != a.Delivered {
		t.Errorf("delivered diverge: faithful %d vs aggregated %d", f.Delivered, a.Delivered)
	}
	if f.SharedProxies != 0 {
		t.Errorf("faithful row hosts %d shared proxies, want 0", f.SharedProxies)
	}
	if a.SharedProxies != int64(a.Stations) {
		t.Errorf("SharedProxies = %d, want one per station (%d)", a.SharedProxies, a.Stations)
	}
	// TIS-side collapse: one subscription firing per group, not per host.
	if a.Notifications != int64(a.Stations) || f.Notifications != int64(f.MHs) {
		t.Errorf("notifications: faithful %d (want %d), aggregated %d (want %d)",
			f.Notifications, f.MHs, a.Notifications, a.Stations)
	}
	// The headline gates: the guard must have licensed the ratios, and
	// even the smallest tier clears the 10× state floor; coalescing must
	// strictly reduce hand-off signaling.
	if a.Reduction < 10 {
		t.Errorf("state reduction = %.1fx, want >= 10x (faithful %.0f B/MSS, aggregated %.0f B/MSS)",
			a.Reduction, f.PerMSS, a.PerMSS)
	}
	if a.SigReduction <= 1 {
		t.Errorf("signaling reduction = %.2fx, want > 1x (faithful %d msgs, aggregated %d msgs)",
			a.SigReduction, f.Signaling, a.Signaling)
	}
}

// TestE16Determinism replays one aggregated tier twice: the schedule,
// the coalescing timers and the set encodings must be pure functions of
// the seed.
func TestE16Determinism(t *testing.T) {
	a, b := E16Run(3, 1000, true), E16Run(3, 1000, true)
	a.Wall, b.Wall = 0, 0
	a.PeakRSS, b.PeakRSS = 0, 0
	a.PeakRSSOK, b.PeakRSSOK = false, false
	if a != b {
		t.Errorf("same seed diverged:\n%+v\n%+v", a, b)
	}
}
