// Package scenario holds the small fixed protocol situations of this
// repository — the paper's worked examples (Figures 3 and 4), the
// migration and windowed-downlink examples that extend them, and the
// races the message-order explorer is pointed at — as plain values in
// one table. A scenario is written once and has two players: Play runs
// it on the clock (each step at its At), and internal/explore plays the
// same steps in order against adversarial delivery schedules, ignoring
// At. Both reach the world only through workload.Apply.
package scenario

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/rdpcore"
	"repro/internal/workload"
)

// Host is one mobile host of a scenario and the cell it starts in.
type Host struct {
	ID    ids.MH
	Start ids.MSS
}

// Step is one scripted act of one host.
type Step struct {
	Host ids.MH
	workload.Event
}

// Gate says which harness holds a scenario to zero failures.
type Gate uint8

const (
	// Clock scenarios are gated only as played on the clock: their
	// config carries a feature whose timers the explorer does not yet
	// own as choices (ROADMAP item 2(a)), so an adversarial failure is a
	// finding to record, not a regression.
	Clock Gate = iota
	// Walks scenarios must also survive random adversarial schedules.
	Walks
	// Tree scenarios are small enough for their schedule tree to be
	// enumerated (or, for the bounce, systematically prefixed) too.
	Tree
)

// Scenario is one protocol situation: a network, its hosts, and what
// the hosts do, in order.
type Scenario struct {
	Name string
	// About is the one paragraph the tools print above a trace.
	About string
	// Config builds the network. It is a function because a config can
	// carry state — a scripted server's position in its delays, E15's
	// one-shot drop filter — and every run must start from a fresh one.
	Config func() rdpcore.Config
	Hosts  []Host
	// Steps are sorted by At. The clock plays each at its instant; the
	// explorer keeps only their order.
	Steps []Step
	Gate  Gate
}

// horizon is how long Play runs the clock. Every scenario is quiescent
// well before it; mig1's one-second tombstone linger is the longest wait.
const horizon = 3 * time.Second

// Play runs the scenario on the clock to the horizon and returns the
// finished world; obs, when non-nil, sees every network event (attach a
// trace.Recorder to print the message flow). Steps enter the kernel in
// table order, which breaks same-instant ties.
func Play(sc Scenario, obs netsim.Observer) *rdpcore.World {
	cfg := sc.Config()
	cfg.Observer = obs
	w := rdpcore.NewWorld(cfg)
	for _, h := range sc.Hosts {
		w.AddMH(h.ID, h.Start)
	}
	pl := workload.Player{Sched: w.Kernel, Sys: w}
	for _, st := range sc.Steps {
		pl.Schedule(st.Host, []workload.Event{st.Event})
	}
	w.RunUntil(horizon)
	return w
}

// Lookup finds a scenario of the table by name.
func Lookup(name string) (Scenario, error) {
	for _, sc := range All {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("unknown scenario %q (one of %s)", name, Names())
}

// Names lists the table's names, comma-separated, in table order.
func Names() string {
	names := make([]string, len(All))
	for i, sc := range All {
		names[i] = sc.Name
	}
	return strings.Join(names, ", ")
}
