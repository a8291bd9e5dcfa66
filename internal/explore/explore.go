// Package explore is a message-order adversary for the RDP protocol: a
// lightweight model-checking harness that replaces the latency-driven
// delivery schedule with controller-chosen orders.
//
// Under the simulation kernel, message interleavings are limited to
// those some latency assignment can produce. The explorer removes that
// restriction: every in-flight delivery is held in a pool and fired in
// an order chosen by the schedule (random walks over the choice tree),
// subject only to the physical constraints that genuinely hold — per
// radio-link FIFO, and the causal wired layer's own delivery buffering.
// Scenario checks then assert the protocol's safety properties
// (cross-node invariants, zero violations) on every explored schedule,
// and its liveness property — every result delivered, no host stranded —
// once the schedule has drained and every host that ended asleep has
// woken once, with no registration beacon to repair anything.
//
// Besides random walks, RunExhaustive enumerates the schedule tree
// depth-first by replaying the scenario from scratch for every choice
// prefix. Replay is cheap (the worlds are tiny and deterministic), so
// full enumeration is feasible for scenarios with a few concurrent
// messages — where it proves that *no* delivery order violates the
// checked properties, not merely that none of N samples does.
//
// What is explored is a scenario.Scenario: the explorer builds the
// world from its config, applies its steps in table order through
// workload.Apply, and a schedule is fully named by the scenario and
// the list of picks taken (Outcome.Choices, Replay).
package explore

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/rdpcore"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// pendingFire is one controller-held delivery.
type pendingFire struct {
	wireless bool
	link     linkKey
	fire     func()
}

type linkKey struct{ from, to ids.NodeID }

// Controller implements netsim.Sequencer: it holds offered deliveries
// and fires them in the order its caller picks (StepAt). Wireless
// deliveries respect per-directed-link FIFO (one radio channel per
// direction); wired deliveries are unconstrained — with the causal layer
// enabled, causally-premature arrivals are buffered by the endpoints
// themselves, so the explorer covers exactly the orders a causal network
// permits. The zero Controller is ready to use.
type Controller struct {
	held []pendingFire // in offer order
}

// Offer implements netsim.Sequencer.
func (c *Controller) Offer(layer netsim.Layer, from, to ids.NodeID, fire func()) {
	c.held = append(c.held, pendingFire{layer == netsim.LayerWireless, linkKey{from, to}, fire})
}

// eligible returns the indices in held of the deliveries that may fire
// next, in the order StepAt numbers them: every wired delivery in offer
// order, then each radio link's oldest frame, links sorted by (from, to).
func (c *Controller) eligible() []int {
	var wired, heads []int
	for i, p := range c.held {
		sameLink := func(q pendingFire) bool { return q.wireless && q.link == p.link }
		switch {
		case !p.wireless:
			wired = append(wired, i)
		case !slices.ContainsFunc(c.held[:i], sameLink):
			heads = append(heads, i)
		}
	}
	slices.SortFunc(heads, func(i, j int) int {
		a, b := c.held[i].link, c.held[j].link
		return cmp.Or(cmp.Compare(a.from.Kind, b.from.Kind), cmp.Compare(a.from.Num, b.from.Num),
			cmp.Compare(a.to.Kind, b.to.Kind), cmp.Compare(a.to.Num, b.to.Num))
	})
	return append(wired, heads...)
}

// Eligible returns the number of deliveries that may fire next.
func (c *Controller) Eligible() int { return len(c.eligible()) }

// StepAt fires the idx-th eligible delivery (0-based). It panics on an
// out-of-range index.
func (c *Controller) StepAt(idx int) {
	i := c.eligible()[idx]
	fire := c.held[i].fire
	c.held = slices.Delete(c.held, i, i+1)
	fire()
}

// Result summarizes one exploration.
type Result struct {
	TotalFirings int
}

// Outcome is one executed schedule. Choices lists every pick the
// chooser made, mid-run picks first and the wake-up's picks after: with
// the scenario's name it identifies the schedule, and Replay re-runs it.
type Outcome struct {
	// Fanouts holds the number of options at each mid-run decision
	// point; its length is the schedule's firings (world actions plus
	// deliveries).
	Fanouts []int
	Choices []int
	World   *rdpcore.World // the finished world (statistics, ViolationLog)
}

// chooser decides a schedule: it picks among n > 0 options. When act is
// true option 0 is the next world action and the rest are the eligible
// deliveries; otherwise (and throughout the wake-up) all n are
// deliveries.
type chooser func(act bool, n int) int

// seeded walks the choice tree at random: it takes the next action with
// probability 0.4 (always, when nothing is in flight) and otherwise a
// uniformly drawn delivery. Action and delivery choices draw from
// separate streams.
func seeded(rng *sim.RNG) chooser {
	actions, picks := rng, rng.Fork()
	return func(act bool, n int) int {
		switch {
		case !act:
			return picks.Intn(n)
		case n == 1 || actions.Prob(0.4):
			return 0
		}
		return 1 + picks.Intn(n-1)
	}
}

// scripted follows a recorded choice list, then always takes option 0.
func scripted(list []int) chooser {
	return func(_ bool, n int) int {
		if len(list) == 0 {
			return 0
		}
		pick := min(list[0], n-1)
		list = list[1:]
		return pick
	}
}

// Run explores the scenario under `schedules` random delivery orders
// and reports via errf (typically t.Errorf) on any property violation;
// see runSchedule for the properties.
func Run(sc scenario.Scenario, seed int64, schedules int, errf func(format string, args ...any)) Result {
	var res Result
	for i := 0; i < schedules; i++ {
		res.TotalFirings += len(Walk(sc, seed, i, errf).Fanouts)
	}
	return res
}

// Walk executes the i-th random schedule of Run at seed.
func Walk(sc scenario.Scenario, seed int64, i int, errf func(format string, args ...any)) Outcome {
	return runSchedule(sc, seeded(sim.NewRNG(seed+int64(i)*7919)), fmt.Sprintf("schedule %d", i), errf)
}

// Replay executes the schedule a recorded choice list names.
func Replay(sc scenario.Scenario, choices []int, errf func(format string, args ...any)) Outcome {
	return runSchedule(sc, scripted(choices), "replay", errf)
}

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
func RunExhaustive(sc scenario.Scenario, budget int, errf func(format string, args ...any)) ExhaustiveResult {
	res := ExhaustiveResult{}
	var prefix []int
	for res.Schedules < budget {
		o := runSchedule(sc, scripted(prefix), fmt.Sprintf("exhaustive schedule %d", res.Schedules), errf)
		res.Schedules++
		res.MaxDepth = max(res.MaxDepth, len(o.Fanouts))
		// Advance like an odometer over the mid-run picks just taken:
		// the deepest decision that can still take a later branch does,
		// and everything below it starts over. The wake-up's order is not
		// enumerated (it would explode the tree): past the prefix its
		// deliveries fire head-first.
		i := len(o.Fanouts) - 1
		for i >= 0 && o.Choices[i]+1 >= o.Fanouts[i] {
			i--
		}
		if i < 0 {
			res.Complete = true
			return res
		}
		o.Choices[i]++
		prefix = o.Choices[:i+1]
	}
	return res
}

// runSchedule executes one schedule of the scenario, every choice made
// by choose: the world is built from the scenario's config with a Controller
// as both sequencers, and the scenario's steps — in table order, their
// instants ignored — are interleaved with the deliveries they induce.
// Kernel timers (server processing) still run to completion after every
// step; latencies order nothing, the chooser does.
//
// Properties checked:
//
//	safety   — cross-node invariants and Violations == 0 at every
//	           quiescent point (after each step and at the end), and
//	           nothing left behind at quiescence;
//	liveness — once the steps and their deliveries have drained and
//	           every host that ended asleep has woken once (in the
//	           scenario's host order; its greet is the protocol's own),
//	           every request the steps issued is delivered and no host
//	           is stranded (rdpcore.World.CheckQuiescent).
func runSchedule(sc scenario.Scenario, choose chooser, label string, errf func(format string, args ...any)) Outcome {
	ctl := &Controller{}
	cfg := sc.Config()
	cfg.WiredSeq = ctl
	cfg.WirelessSeq = ctl
	w := rdpcore.NewWorld(cfg)
	for _, h := range sc.Hosts {
		w.AddMH(h.ID, h.Start)
	}
	w.Run()

	out := Outcome{World: w}
	label = sc.Name + ": " + label + ": "
	failed := false
	fail := func(format string, args ...any) {
		failed = true
		errf(label+format, args...)
	}
	checkSafety := func(at string) {
		if err := w.CheckInvariants(); err != nil {
			fail("(%s): invariants: %v", at, err)
		}
		if v := w.Stats.Violations.Value(); v != 0 {
			fail("(%s): violations = %d", at, v)
		}
	}

	// Interleave steps and deliveries as the chooser says, keeping the
	// ledger of issued requests for the liveness check.
	steps := sc.Steps
	var ledger []workload.Issued
	for len(steps) > 0 || ctl.Eligible() > 0 {
		act, n := len(steps) > 0, ctl.Eligible()
		if act {
			n++
		}
		pick := choose(act, n)
		out.Choices, out.Fanouts = append(out.Choices, pick), append(out.Fanouts, n)
		switch {
		case act && pick == 0:
			if req := workload.Apply(w, steps[0].Host, &steps[0].Event); req.Seq != 0 {
				ledger = append(ledger, workload.Issued{MH: steps[0].Host, Req: req})
			}
			steps = steps[1:]
		case act:
			ctl.StepAt(pick - 1)
		default:
			ctl.StepAt(pick)
		}
		w.Run()
		checkSafety("mid-run")
	}

	// Wake-up: a host that ended asleep wakes once, and what its greet
	// sets off drains in the chooser's order.
	for _, h := range sc.Hosts {
		if w.IsActive(h.ID) {
			continue
		}
		w.SetActive(h.ID, true)
		for w.Run(); ctl.Eligible() > 0; w.Run() {
			pick := choose(false, ctl.Eligible())
			out.Choices = append(out.Choices, pick)
			ctl.StepAt(pick)
		}
	}
	for _, l := range ledger {
		if !w.MHs[l.MH].Seen(l.Req) {
			fail("%v undelivered", l.Req)
		}
	}
	checkSafety("end")
	if err := w.CheckQuiescent(); err != nil {
		fail("%v", err)
	}
	if failed {
		errf(label+"replay with choices %v", out.Choices)
	}
	return out
}
