package experiments

import (
	"testing"
	"time"
)

// TestE14QuickSweep runs the quick-scale E14 worker sweep and enforces
// the experiment's gates: perfect delivery, no stragglers, no protocol
// violations, and full-Summary equality between the Workers=1 baseline
// and every other row of a tier.
func TestE14QuickSweep(t *testing.T) {
	rows := E14Scale(1, SmallScale(), nil, nil)
	if len(rows) == 0 {
		t.Fatal("empty sweep")
	}
	for _, r := range rows {
		if r.Ratio != 1.0 {
			t.Errorf("workers=%d: ratio %.6f, want 1.0", r.Workers, r.Ratio)
		}
		if r.Missing != 0 {
			t.Errorf("workers=%d: %d undelivered requests", r.Workers, r.Missing)
		}
		if r.Violations != 0 {
			t.Errorf("workers=%d: %d protocol violations", r.Workers, r.Violations)
		}
		if !r.HeadlineEq {
			t.Errorf("workers=%d: Summary differs from the Workers=1 run", r.Workers)
		}
		if r.Issued == 0 {
			t.Errorf("workers=%d: no requests issued", r.Workers)
		}
		if r.CrossFrames == 0 {
			t.Errorf("workers=%d: no cross-region frames in a %d-region world", r.Workers, r.Regions)
		}
		if r.PeakRSS == 0 {
			t.Errorf("workers=%d: peak RSS not measured", r.Workers)
		}
	}
}

// TestParseE14Tier covers the -e14tier override format.
func TestParseE14Tier(t *testing.T) {
	tier, ok := ParseE14Tier("64:50000:16:3")
	if !ok {
		t.Fatal("valid tier rejected")
	}
	want := E14Tier{Cells: 64, MHs: 50000, Regions: 16, Horizon: 3 * time.Second}
	if tier != want {
		t.Errorf("got %+v, want %+v", tier, want)
	}
	for _, bad := range []string{"", "64:50000:16", "64:50000:16:3:9", "64:x:16:3", "0:1:1:1", "-1:1:1:1"} {
		if _, ok := ParseE14Tier(bad); ok {
			t.Errorf("ParseE14Tier(%q) accepted", bad)
		}
	}
}
