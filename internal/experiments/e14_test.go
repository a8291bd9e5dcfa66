package experiments

import (
	"testing"
	"time"
)

// TestE14QuickSweep runs the quick-scale E14 worker sweep, then the
// 64-cell/50k-host/16-region tier at one worker and at eight, and
// enforces the experiment's gates on both: perfect delivery, no
// stragglers, no protocol violations, and full-Summary equality between
// a tier's first row and every other — any worker-count-dependent byte
// in internal/psim fails here.
func TestE14QuickSweep(t *testing.T) {
	checkE14(t, E14Scale(1, SmallScale(), nil, nil))
	if testing.Short() {
		return
	}
	tier, _ := ParseE14Tier("64:50000:16:3")
	checkE14(t, E14Scale(1, SmallScale(), []E14Tier{tier}, []int{1, 8}))
}

func checkE14(t *testing.T, rows []E14Row) {
	t.Helper()
	if len(rows) < 2 {
		t.Fatalf("sweep has %d rows, want a baseline and at least one more", len(rows))
	}
	for _, r := range rows {
		if r.Ratio != 1.0 {
			t.Errorf("mhs=%d workers=%d: ratio %.6f, want 1.0", r.MHs, r.Workers, r.Ratio)
		}
		if r.Missing != 0 {
			t.Errorf("mhs=%d workers=%d: %d undelivered requests", r.MHs, r.Workers, r.Missing)
		}
		if r.Violations != 0 {
			t.Errorf("mhs=%d workers=%d: %d protocol violations", r.MHs, r.Workers, r.Violations)
		}
		if !r.HeadlineEq {
			t.Errorf("mhs=%d workers=%d: Summary differs from the tier's first row", r.MHs, r.Workers)
		}
		if r.Issued == 0 {
			t.Errorf("mhs=%d workers=%d: no requests issued", r.MHs, r.Workers)
		}
		if r.CrossFrames == 0 {
			t.Errorf("mhs=%d workers=%d: no cross-region frames in a %d-region world", r.MHs, r.Workers, r.Regions)
		}
		if r.PeakRSS == 0 {
			t.Errorf("mhs=%d workers=%d: peak RSS not measured", r.MHs, r.Workers)
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
