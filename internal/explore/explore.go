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
// and its liveness property (all results delivered) after bounded
// registration-refresh rounds, mirroring how a real deployment's
// periodic beacons bound recovery time.
package explore

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/rdpcore"
	"repro/internal/sim"
)

// pendingFire is one controller-held delivery.
type pendingFire struct {
	layer netsim.Layer
	from  ids.NodeID
	to    ids.NodeID
	fire  func()
}

// Controller implements netsim.Sequencer: it pools offered deliveries
// and fires them in the order its caller picks (StepAt). Wireless deliveries
// respect per-directed-link FIFO (one radio channel per direction);
// wired deliveries are unconstrained — with the causal layer enabled,
// causally-premature arrivals are buffered by the endpoints themselves,
// so the explorer covers exactly the orders a causal network permits.
type Controller struct {
	lanes map[linkKey][]*pendingFire // wireless FIFO lanes
	pool  []*pendingFire             // wired (unordered)
}

type linkKey struct{ from, to ids.NodeID }

// NewController returns an empty controller.
func NewController() *Controller {
	return &Controller{lanes: make(map[linkKey][]*pendingFire)}
}

// Offer implements netsim.Sequencer.
func (c *Controller) Offer(layer netsim.Layer, from, to ids.NodeID, fire func()) {
	p := &pendingFire{layer: layer, from: from, to: to, fire: fire}
	if layer == netsim.LayerWireless {
		k := linkKey{from: from, to: to}
		c.lanes[k] = append(c.lanes[k], p)
		return
	}
	c.pool = append(c.pool, p)
}

// Eligible returns the number of deliveries that may fire next: every
// pooled wired delivery plus each wireless lane's head.
func (c *Controller) Eligible() int {
	n := len(c.pool)
	for _, lane := range c.lanes {
		if len(lane) > 0 {
			n++
		}
	}
	return n
}

// StepAt fires the idx-th eligible delivery (0-based over the same
// ordering Eligible counts: pooled wired deliveries first, then the
// lane heads in stable key order). It panics on an out-of-range index.
func (c *Controller) StepAt(idx int) {
	if idx < len(c.pool) {
		p := c.pool[idx]
		c.pool = append(c.pool[:idx], c.pool[idx+1:]...)
		p.fire()
		return
	}
	idx -= len(c.pool)
	keys := c.laneKeys()
	k := keys[idx]
	lane := c.lanes[k]
	p := lane[0]
	if len(lane) == 1 {
		delete(c.lanes, k)
	} else {
		c.lanes[k] = lane[1:]
	}
	p.fire()
}

// laneKeys returns the non-empty lane keys in a stable order.
func (c *Controller) laneKeys() []linkKey {
	keys := make([]linkKey, 0, len(c.lanes))
	for k, lane := range c.lanes {
		if len(lane) > 0 {
			keys = append(keys, k)
		}
	}
	// Sort by (from, to) tuples for determinism across map iteration.
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			if keyLess(keys[j], keys[i]) {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	return keys
}

func keyLess(a, b linkKey) bool {
	if a.from != b.from {
		return nodeLess(a.from, b.from)
	}
	return nodeLess(a.to, b.to)
}

func nodeLess(a, b ids.NodeID) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Num < b.Num
}

// Scenario is one explorable protocol situation.
type Scenario struct {
	Name string
	// Hosts is the number of stations in the world.
	Stations int
	// Build populates the world and returns the ordered world actions
	// (migrations, requests, activity flips) the adversary interleaves
	// with deliveries, plus the request set whose delivery the liveness
	// check demands.
	Build func(w *rdpcore.World) (actions []func(), requests func() map[ids.MH][]ids.RequestID)
}

// Result summarizes one exploration.
type Result struct {
	Schedules     int
	MaxRefreshes  int // worst-case settlement rounds needed
	TotalFirings  int
	TotalRecovery int // schedules that needed at least one refresh round
}

// chooser decides a schedule: which option to take at each mid-run
// decision point, and which delivery fires next during settlement.
type chooser interface {
	// next picks among n = (1 if act) + k options: option 0 is the next
	// world action when act is true, the rest are the k eligible
	// deliveries. At least one option exists.
	next(act bool, k int) int
	// settle picks among the k > 0 eligible deliveries of a refresh round.
	settle(k int) int
}

// seededChooser walks the choice tree at random: it takes the next action
// with probability 0.4 (always, when nothing is in flight) and otherwise
// a uniformly drawn delivery. Action and delivery choices draw from
// separate streams.
type seededChooser struct{ act, pick *sim.RNG }

func (c seededChooser) next(act bool, k int) int {
	switch {
	case !act:
		return c.pick.Intn(k)
	case k == 0 || c.act.Prob(0.4):
		return 0
	}
	return 1 + c.pick.Intn(k)
}

func (c seededChooser) settle(k int) int { return c.pick.Intn(k) }

// Run explores the scenario under `schedules` random delivery orders
// and reports via errf (typically t.Errorf) on any property violation;
// see runSchedule for the properties.
func Run(sc Scenario, seed int64, schedules, maxRefresh int, errf func(format string, args ...any)) Result {
	res := Result{Schedules: schedules}
	for i := 0; i < schedules; i++ {
		rng := sim.NewRNG(seed + int64(i)*7919)
		firings, rounds := runSchedule(sc, seed+int64(i), seededChooser{act: rng, pick: rng.Fork()}, maxRefresh, fmt.Sprintf("schedule %d", i), errf)
		res.TotalFirings += firings
		if rounds > res.MaxRefreshes {
			res.MaxRefreshes = rounds
		}
		if rounds > 0 {
			res.TotalRecovery++
		}
	}
	return res
}

// runSchedule executes one schedule of the scenario, every choice made
// by ch, and reports how many mid-run steps and refresh rounds it took.
//
// Properties checked:
//
//	safety   — cross-node invariants and Violations == 0 at every
//	           quiescent point (after each step, each refresh round, and
//	           at the end), and nothing left behind at quiescence;
//	liveness — all of the scenario's requests delivered within
//	           maxRefresh registration-refresh rounds after the action
//	           script ends (each round models one refresh beacon).
func runSchedule(sc Scenario, worldSeed int64, ch chooser, maxRefresh int, label string, errf func(format string, args ...any)) (firings, rounds int) {
	ctl := NewController()
	cfg := rdpcore.DefaultConfig()
	cfg.Seed = worldSeed
	cfg.NumMSS = sc.Stations
	cfg.NumServers = 1
	// Latencies are irrelevant under the controller (they would only
	// order what the controller now orders), but kernel timers still
	// drive server processing.
	cfg.WiredSeq = ctl
	cfg.WirelessSeq = ctl
	w := rdpcore.NewWorld(cfg)

	actions, requests := sc.Build(w)
	w.Run()

	checkSafety := func(at string) {
		if err := w.CheckInvariants(); err != nil {
			errf("%s: %s (%s): invariants: %v", sc.Name, label, at, err)
		}
		if v := w.Stats.Violations.Value(); v != 0 {
			errf("%s: %s (%s): violations = %d", sc.Name, label, at, v)
		}
	}

	// Interleave actions and deliveries as the chooser says.
	for len(actions) > 0 || ctl.Eligible() > 0 {
		act := len(actions) > 0
		pick := ch.next(act, ctl.Eligible())
		switch {
		case act && pick == 0:
			actions[0]()
			actions = actions[1:]
		case act:
			ctl.StepAt(pick - 1)
		default:
			ctl.StepAt(pick)
		}
		w.Run()
		firings++
		checkSafety("mid-run")
	}

	// Settlement: fire refresh beacons until everything is delivered
	// (each round is one greet per host, as a real refresh would be).
	delivered := func() bool {
		for mh, reqs := range requests() {
			for _, r := range reqs {
				if !w.MHs[mh].Seen(r) {
					return false
				}
			}
		}
		return true
	}
	for !delivered() && rounds < maxRefresh {
		rounds++
		for mh := range requests() {
			w.SetActive(mh, true) // no-op when already active
			w.Refresh(mh)
			for ctl.Eligible() > 0 {
				ctl.StepAt(ch.settle(ctl.Eligible()))
				w.Run()
			}
			w.Run()
		}
		checkSafety(fmt.Sprintf("refresh round %d", rounds))
	}
	if !delivered() {
		errf("%s: %s: requests undelivered after %d refresh rounds", sc.Name, label, maxRefresh)
	}
	checkSafety("end")
	if err := w.CheckQuiescent(); err != nil {
		errf("%s: %s: %v", sc.Name, label, err)
	}
	return firings, rounds
}
