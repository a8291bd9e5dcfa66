package explore

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/rdpcore"
)

// This file adds systematic exploration: instead of random walks over
// the schedule tree, RunExhaustive enumerates schedules depth-first by
// replaying the scenario from scratch for every choice prefix. Replay
// is cheap (the worlds are tiny and deterministic), so full enumeration
// is feasible for scenarios with a few concurrent messages — where it
// proves that *no* delivery order violates the checked properties, not
// merely that none of N samples does.

// scriptedChooser follows a recorded choice prefix, then always picks
// option 0, recording the fanout seen at every decision point.
type scriptedChooser struct {
	prefix  []int
	step    int
	fanouts []int
}

// next returns the branch to take among the options of this decision
// point (the next action, if any, then the k deliveries) and records
// their number.
func (s *scriptedChooser) next(act bool, k int) int {
	n := k
	if act {
		n++
	}
	s.fanouts = append(s.fanouts, n)
	pick := 0
	if s.step < len(s.prefix) {
		pick = s.prefix[s.step]
	}
	s.step++
	if pick >= n {
		pick = n - 1
	}
	return pick
}

// settle: settlement order is not enumerated (it would explode the
// tree); deliveries fire head-first deterministically.
func (s *scriptedChooser) settle(int) int { return 0 }

// ExhaustiveResult summarizes a systematic exploration.
type ExhaustiveResult struct {
	// Schedules is the number of complete schedules executed.
	Schedules int
	// Complete reports whether the whole tree was enumerated (false when
	// the budget ran out first).
	Complete bool
	// MaxDepth is the longest decision sequence seen.
	MaxDepth int
}

// RunExhaustive enumerates the scenario's schedule tree depth-first,
// executing every complete schedule up to budget runs, checking the
// same properties as Run on each. Choice points are (a) take the next
// world action vs. fire a delivery, and (b) which eligible delivery to
// fire.
func RunExhaustive(sc Scenario, budget, maxRefresh int, errf func(format string, args ...any)) ExhaustiveResult {
	res := ExhaustiveResult{}
	prefix := []int{}
	for {
		if res.Schedules >= budget {
			return res
		}
		chooser := &scriptedChooser{prefix: prefix}
		runSchedule(sc, rdpcore.DefaultConfig().Seed, chooser, maxRefresh, fmt.Sprintf("exhaustive schedule %d", res.Schedules), errf)
		res.Schedules++
		if len(chooser.fanouts) > res.MaxDepth {
			res.MaxDepth = len(chooser.fanouts)
		}
		// Advance the prefix like an odometer over the recorded fanouts:
		// find the deepest decision that can still take a later branch.
		full := chooser.fanouts
		next := make([]int, len(full))
		copy(next, prefix)
		for i := len(next); i < len(full); i++ {
			next = append(next, 0)
		}
		i := len(full) - 1
		for i >= 0 {
			if next[i]+1 < full[i] {
				next[i]++
				next = next[:i+1]
				break
			}
			i--
		}
		if i < 0 {
			res.Complete = true
			return res
		}
		prefix = next
	}
}

// Tiny returns the smallest interesting scenario — one request and one
// migration racing it — whose schedule tree RunExhaustive can enumerate
// completely.
func Tiny() Scenario {
	return Scenario{
		Name:     "tiny-request-vs-migration",
		Stations: 2,
		Build: func(w *rdpcore.World) ([]func(), func() map[ids.MH][]ids.RequestID) {
			mh := w.AddMH(1, 1)
			var reqs []ids.RequestID
			actions := []func(){
				func() { reqs = append(reqs, mh.IssueRequest(1, []byte("q"))) },
				func() { w.Migrate(1, 2) },
			}
			return actions, func() map[ids.MH][]ids.RequestID {
				return map[ids.MH][]ids.RequestID{1: reqs}
			}
		},
	}
}

// TinySleep is the second exhaustively enumerable scenario: one request
// racing an inactivity window (§3.2's "MH becomes inactive" case and §5
// footnote 3's motivation). The result may reach the cell before the
// host sleeps, while it sleeps, or after it wakes — every interleaving
// of the induced messages must still deliver exactly once at-least.
func TinySleep() Scenario {
	return Scenario{
		Name:     "tiny-request-vs-sleep",
		Stations: 2,
		Build: func(w *rdpcore.World) ([]func(), func() map[ids.MH][]ids.RequestID) {
			mh := w.AddMH(1, 1)
			var reqs []ids.RequestID
			actions := []func(){
				func() { reqs = append(reqs, mh.IssueRequest(1, []byte("q"))) },
				func() { w.SetActive(1, false) },
				func() { w.SetActive(1, true) },
			}
			return actions, func() map[ids.MH][]ids.RequestID {
				return map[ids.MH][]ids.RequestID{1: reqs}
			}
		},
	}
}

// TinyHandoffBack is the third exhaustively enumerable scenario: a
// request issued at the old station races a there-and-back migration
// (the bounce that motivates the ignoreAcks/arriving machinery of
// §3.2's hand-off, compressed to its smallest instance).
func TinyHandoffBack() Scenario {
	return Scenario{
		Name:     "tiny-request-vs-bounce",
		Stations: 2,
		Build: func(w *rdpcore.World) ([]func(), func() map[ids.MH][]ids.RequestID) {
			mh := w.AddMH(1, 1)
			var reqs []ids.RequestID
			actions := []func(){
				func() { reqs = append(reqs, mh.IssueRequest(1, []byte("q"))) },
				func() { w.Migrate(1, 2) },
				func() { w.Migrate(1, 1) },
			}
			return actions, func() map[ids.MH][]ids.RequestID {
				return map[ids.MH][]ids.RequestID{1: reqs}
			}
		},
	}
}
