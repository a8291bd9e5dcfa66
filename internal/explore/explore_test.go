package explore

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// lookup fetches a scenario of the table by name.
func lookup(t *testing.T, name string) scenario.Scenario {
	t.Helper()
	sc, err := scenario.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestAdversarialSchedules runs every scenario gated on the adversary
// under many random delivery orders: safety and liveness must hold on
// all of them. The legacy scenarios' totals are pinned to what they were
// when each was a hand-written closure list (seed 1, 400 walks), but for
// bounce-back-overlap's, which the hand-off sequence moved.
func TestAdversarialSchedules(t *testing.T) {
	const schedules = 400
	pins := map[string]Result{
		"single-request-two-migrations": {TotalFirings: 8172},
		"bounce-back-overlap":           {TotalFirings: 16369},
		"sleep-carry-wake":              {TotalFirings: 10245},
		"two-hosts-crossing":            {TotalFirings: 16548},
	}
	for _, sc := range scenario.All {
		if sc.Gate == scenario.Clock {
			continue
		}
		t.Run(sc.Name, func(t *testing.T) {
			res := Run(sc, 1, schedules, t.Errorf)
			if res.TotalFirings == 0 {
				t.Fatal("explorer fired nothing; harness broken")
			}
			if want, ok := pins[sc.Name]; ok && res != want {
				t.Errorf("got %+v, want %+v", res, want)
			}
			t.Logf("%s: %d schedules, %d firings", sc.Name, schedules, res.TotalFirings)
		})
	}
}

// twoHostsAsleep is a two-host scenario whose hosts both end asleep:
// each issues a request and falls asleep, and nothing but the wake-up at
// the end wakes it.
func twoHostsAsleep(t *testing.T) scenario.Scenario {
	sc := lookup(t, "tiny-request-vs-sleep")
	sc.Name = "two-hosts-asleep"
	sc.Hosts = []scenario.Host{{ID: 1, Start: 1}, {ID: 2, Start: 2}}
	var steps []scenario.Step
	for _, st := range sc.Steps[:2] { // the request and the sleep, not the wake
		other := st
		other.Host = 2
		steps = append(steps, st, other)
	}
	sc.Steps = steps
	return sc
}

// TestRunReproducible: one seed is one exploration, also when several
// hosts wake at the end — the wake-up goes in the scenario's host order,
// not a map's.
func TestRunReproducible(t *testing.T) {
	sc := twoHostsAsleep(t)
	woken := 0
	for i := 0; i < 60; i++ {
		a := Walk(sc, 1, i, t.Errorf)
		b := Walk(sc, 1, i, t.Errorf)
		if !slices.Equal(a.Fanouts, b.Fanouts) || !slices.Equal(a.Choices, b.Choices) {
			t.Fatalf("walk %d differs between two runs: %d firings, choices %v; then %d, %v",
				i, len(a.Fanouts), a.Choices, len(b.Fanouts), b.Choices)
		}
		if len(a.Choices) > len(a.Fanouts) {
			woken++
		}
	}
	if woken == 0 {
		t.Fatal("no walk picked a delivery during the wake-up; the scenario does not exercise wake order")
	}
}

// TestReplayFollowsRecordedWalk: a walk's choice list, fed back through
// the scripted chooser, is the same schedule — the wake-up's picks
// included.
func TestReplayFollowsRecordedWalk(t *testing.T) {
	woken := 0
	for _, sc := range []scenario.Scenario{lookup(t, "bounce-back-overlap"), twoHostsAsleep(t)} {
		for i := 0; i < 60; i++ {
			walk := Walk(sc, 1, i, t.Errorf)
			replay := Replay(sc, walk.Choices, t.Errorf)
			if !slices.Equal(replay.Fanouts, walk.Fanouts) || !slices.Equal(replay.Choices, walk.Choices) {
				t.Fatalf("%s walk %d: replay took %d firings, choices %v; the walk %d, %v",
					sc.Name, i, len(replay.Fanouts), replay.Choices, len(walk.Fanouts), walk.Choices)
			}
			if len(walk.Choices) > len(walk.Fanouts) {
				woken++
			}
		}
	}
	if woken == 0 {
		t.Fatal("no replayed walk reached the wake-up")
	}
}

// TestMigrationUnderAdversary walks mig1 under the adversary: no walk may
// record a protocol violation. Its property failures are only logged:
// the explorer drains the tombstone linger timer and the other kernel
// timers between steps instead of scheduling them (ROADMAP item 2(a)),
// so the harness itself breaks liveness on some walks. The first
// violating walk is reported as the (scenario, choice list) pair that
// replays it.
func TestMigrationUnderAdversary(t *testing.T) {
	if testing.Short() {
		t.Skip("2000 walks")
	}
	sc := lookup(t, "mig1")
	failures := 0
	count := func(string, ...any) { failures++ }
	for i := 0; i < 2000; i++ {
		o := Walk(sc, 1, i, count)
		if o.World.Stats.Violations.Value() == 0 {
			continue
		}
		t.Errorf("walk %d of %s records a violation; replay with choices %v", i, sc.Name, o.Choices)
		for _, v := range o.World.ViolationLog() {
			t.Log(v)
		}
		return
	}
	t.Logf("2000 walks of %s: no violation recorded, %d property failures", sc.Name, failures)
}

// TestBounceBackOverlapReplay replays walk 5843 of bounce-back-overlap at
// seed 1 — one host, three requests, three migrations, default config.
// A result-fwd carrying del-pref for req1 crosses the request-fwd of req2
// on the wire and reaches the respMss after req2 was routed; req1's Ack
// goes to a station that has deregistered the host, and req2's Ack comes
// back with outst=false. The stale del-pref must not arm RKpR (its mark
// does not cover req2), and req2's Ack must not confirm del-proxy while
// req1 is still pending at the proxy.
func TestBounceBackOverlapReplay(t *testing.T) {
	choices := []int{0, 1, 1, 1, 1, 1, 0, 2, 1, 2, 1, 1, 0, 2, 1, 1, 1, 1, 0, 3, 2, 0, 1, 2,
		3, 0, 0, 1, 0, 1, 1, 1, 1, 0, 0, 0, 1, 1, 0, 1, 2, 2, 0, 0, 0, 0, 0, 0}
	var failures []string
	o := Replay(lookup(t, "bounce-back-overlap"), choices, func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	})
	if log := o.World.ViolationLog(); len(log) != 0 {
		t.Errorf("violations: %q", log)
	}
	for _, f := range failures {
		t.Error(f)
	}
}

// TestControllerWirelessFIFO verifies the controller's lane discipline:
// two frames on one link fire in order regardless of schedule choices.
func TestControllerWirelessFIFO(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := sim.NewRNG(seed)
		ctl := &Controller{}
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
	ctl := &Controller{}
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
	res := RunExhaustive(lookup(t, "tiny-request-vs-migration"), 200000, t.Errorf)
	if !res.Complete {
		t.Fatalf("tree not fully enumerated within budget (%d schedules)", res.Schedules)
	}
	if res.Schedules != 666 || res.MaxDepth != 16 {
		t.Fatalf("tree has %d schedules, max depth %d; it had 666 and 16 as a closure list", res.Schedules, res.MaxDepth)
	}
}

// TestExhaustiveBudgetStops verifies the budget bound.
func TestExhaustiveBudgetStops(t *testing.T) {
	res := RunExhaustive(lookup(t, "tiny-request-vs-migration"), 3, t.Errorf)
	if res.Complete || res.Schedules != 3 {
		t.Fatalf("budget not honoured: %+v", res)
	}
}

// TestExhaustiveSleep fully enumerates the request-vs-inactivity tree.
func TestExhaustiveSleep(t *testing.T) {
	res := RunExhaustive(lookup(t, "tiny-request-vs-sleep"), 500000, t.Errorf)
	if !res.Complete {
		t.Fatalf("sleep tree not fully enumerated within budget (%d schedules)", res.Schedules)
	}
	if res.Schedules != 140 || res.MaxDepth != 12 {
		t.Fatalf("tree has %d schedules, max depth %d; it had 140 and 12 as a closure list", res.Schedules, res.MaxDepth)
	}
}

// TestExhaustiveBounce systematically explores the request-vs-bounce
// tree (the smallest instance of the hand-off-and-back race). The full
// tree exceeds two million schedules, so this enumerates a depth-first
// prefix; every schedule in that region must satisfy the properties.
func TestExhaustiveBounce(t *testing.T) {
	res := RunExhaustive(lookup(t, "tiny-request-vs-bounce"), 20000, t.Errorf)
	if res.Complete {
		t.Log("bounce tree completed within 20000 schedules; budget note stale")
	} else if res.Schedules != 20000 {
		t.Fatalf("explored %d schedules, want the full 20000 budget", res.Schedules)
	}
	t.Logf("explored %d-schedule DFS prefix (max depth %d)", res.Schedules, res.MaxDepth)
}
