package explore

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/rdpcore"
	"repro/internal/sim"
)

// scenarios returns the explored protocol situations. Each is small
// enough that thousands of random schedules probe its interleaving
// space densely.
func scenarios() []Scenario {
	return []Scenario{
		{
			// The Figure 3 situation, order-adversarial: one request, two
			// migrations racing the result.
			Name:     "single-request-two-migrations",
			Stations: 3,
			Build: func(w *rdpcore.World) ([]func(), func() map[ids.MH][]ids.RequestID) {
				mh := w.AddMH(1, 1)
				var reqs []ids.RequestID
				actions := []func(){
					func() { reqs = append(reqs, mh.IssueRequest(1, []byte("q"))) },
					func() { w.Migrate(1, 2) },
					func() { w.Migrate(1, 3) },
				}
				return actions, func() map[ids.MH][]ids.RequestID {
					return map[ids.MH][]ids.RequestID{1: reqs}
				}
			},
		},
		{
			// The bounce-back race behind the HaveOutstanding completion:
			// overlapping requests while ping-ponging between two cells.
			Name:     "bounce-back-overlap",
			Stations: 2,
			Build: func(w *rdpcore.World) ([]func(), func() map[ids.MH][]ids.RequestID) {
				mh := w.AddMH(1, 1)
				var reqs []ids.RequestID
				issue := func() { reqs = append(reqs, mh.IssueRequest(1, []byte("q"))) }
				actions := []func(){
					issue,
					func() { w.Migrate(1, 2) },
					issue,
					func() { w.Migrate(1, 1) },
					func() { w.Migrate(1, 2) },
					issue,
				}
				return actions, func() map[ids.MH][]ids.RequestID {
					return map[ids.MH][]ids.RequestID{1: reqs}
				}
			},
		},
		{
			// Inactivity racing delivery, wake-up in a different cell.
			Name:     "sleep-carry-wake",
			Stations: 3,
			Build: func(w *rdpcore.World) ([]func(), func() map[ids.MH][]ids.RequestID) {
				mh := w.AddMH(1, 1)
				var reqs []ids.RequestID
				actions := []func(){
					func() { reqs = append(reqs, mh.IssueRequest(1, []byte("a"))) },
					func() { w.SetActive(1, false) },
					func() { w.Migrate(1, 3) },
					func() { w.SetActive(1, true) },
					func() { reqs = append(reqs, mh.IssueRequest(1, []byte("b"))) },
				}
				return actions, func() map[ids.MH][]ids.RequestID {
					return map[ids.MH][]ids.RequestID{1: reqs}
				}
			},
		},
		{
			// Two hosts whose hand-off chains interleave at shared stations.
			Name:     "two-hosts-crossing",
			Stations: 3,
			Build: func(w *rdpcore.World) ([]func(), func() map[ids.MH][]ids.RequestID) {
				a := w.AddMH(1, 1)
				b := w.AddMH(2, 3)
				var ra, rb []ids.RequestID
				actions := []func(){
					func() { ra = append(ra, a.IssueRequest(1, []byte("a"))) },
					func() { rb = append(rb, b.IssueRequest(1, []byte("b"))) },
					func() { w.Migrate(1, 2) },
					func() { w.Migrate(2, 2) },
					func() { w.Migrate(1, 3) },
					func() { w.Migrate(2, 1) },
				}
				return actions, func() map[ids.MH][]ids.RequestID {
					return map[ids.MH][]ids.RequestID{1: ra, 2: rb}
				}
			},
		},
	}
}

// TestAdversarialSchedules runs every scenario under many random
// delivery orders: safety must hold on all of them, and liveness within
// a small number of refresh beacons.
func TestAdversarialSchedules(t *testing.T) {
	const (
		schedules  = 400
		maxRefresh = 5
	)
	for _, sc := range scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res := Run(sc, 1, schedules, maxRefresh, t.Errorf)
			if res.TotalFirings == 0 {
				t.Fatal("explorer fired nothing; harness broken")
			}
			t.Logf("%s: %d schedules, %d firings, %d needed recovery (max %d refresh rounds)",
				sc.Name, res.Schedules, res.TotalFirings, res.TotalRecovery, res.MaxRefreshes)
		})
	}
}

// TestControllerWirelessFIFO verifies the controller's lane discipline:
// two frames on one link fire in order regardless of schedule choices.
func TestControllerWirelessFIFO(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := sim.NewRNG(seed)
		ctl := NewController()
		var fired []int
		ctl.Offer(netsim.LayerWireless, ids.MH(1).Node(), ids.MSS(1).Node(), func() { fired = append(fired, 1) })
		ctl.Offer(netsim.LayerWireless, ids.MH(1).Node(), ids.MSS(1).Node(), func() { fired = append(fired, 2) })
		ctl.Offer(netsim.LayerWired, ids.MSS(1).Node(), ids.MSS(2).Node(), func() { fired = append(fired, 3) })
		for ctl.Eligible() > 0 {
			ctl.StepAt(rng.Intn(ctl.Eligible()))
		}
		if len(fired) != 3 {
			t.Fatalf("fired %d of 3", len(fired))
		}
		pos := map[int]int{}
		for i, f := range fired {
			pos[f] = i
		}
		if pos[1] > pos[2] {
			t.Fatalf("seed %d: wireless lane reordered: %v", seed, fired)
		}
	}
}

// TestControllerEligibleCounts checks the eligibility accounting.
func TestControllerEligibleCounts(t *testing.T) {
	ctl := NewController()
	if ctl.Eligible() != 0 {
		t.Fatal("fresh controller not empty")
	}
	ctl.Offer(netsim.LayerWireless, ids.MH(1).Node(), ids.MSS(1).Node(), func() {})
	ctl.Offer(netsim.LayerWireless, ids.MH(1).Node(), ids.MSS(1).Node(), func() {})
	ctl.Offer(netsim.LayerWired, ids.MSS(1).Node(), ids.MSS(2).Node(), func() {})
	// Two queued on one lane count as one eligible head, plus one wired.
	if got := ctl.Eligible(); got != 2 {
		t.Fatalf("Eligible = %d, want 2", got)
	}
	ctl.StepAt(1) // the lane head; its successor becomes eligible
	if got := ctl.Eligible(); got != 2 {
		t.Fatalf("Eligible after firing a lane head = %d, want 2", got)
	}
}

// TestExhaustiveTiny enumerates the complete schedule tree of the tiny
// scenario: every possible interleaving of one request, one migration
// and their induced messages satisfies safety, and delivers.
func TestExhaustiveTiny(t *testing.T) {
	res := RunExhaustive(Tiny(), 200000, 5, t.Errorf)
	if !res.Complete {
		t.Fatalf("tree not fully enumerated within budget (%d schedules)", res.Schedules)
	}
	if res.Schedules < 10 {
		t.Fatalf("suspiciously small tree: %d schedules", res.Schedules)
	}
	t.Logf("enumerated %d schedules completely (max depth %d)", res.Schedules, res.MaxDepth)
}

// TestExhaustiveBudgetStops verifies the budget bound.
func TestExhaustiveBudgetStops(t *testing.T) {
	res := RunExhaustive(Tiny(), 3, 5, t.Errorf)
	if res.Complete || res.Schedules != 3 {
		t.Fatalf("budget not honoured: %+v", res)
	}
}

// TestExhaustiveSleep fully enumerates the request-vs-inactivity tree.
func TestExhaustiveSleep(t *testing.T) {
	res := RunExhaustive(TinySleep(), 500000, 5, t.Errorf)
	if !res.Complete {
		t.Fatalf("sleep tree not fully enumerated within budget (%d schedules)", res.Schedules)
	}
	if res.Schedules < 10 {
		t.Fatalf("suspiciously small tree: %d schedules", res.Schedules)
	}
	t.Logf("enumerated %d schedules completely (max depth %d)", res.Schedules, res.MaxDepth)
}

// TestExhaustiveBounce systematically explores the request-vs-bounce
// tree (the smallest instance of the hand-off-and-back race). The full
// tree exceeds two million schedules, so this enumerates a depth-first
// prefix; every schedule in that region must satisfy the properties.
func TestExhaustiveBounce(t *testing.T) {
	res := RunExhaustive(TinyHandoffBack(), 20000, 5, t.Errorf)
	if res.Complete {
		t.Log("bounce tree completed within 20000 schedules; budget note stale")
	} else if res.Schedules != 20000 {
		t.Fatalf("explored %d schedules, want the full 20000 budget", res.Schedules)
	}
	t.Logf("explored %d-schedule DFS prefix (max depth %d)", res.Schedules, res.MaxDepth)
}
