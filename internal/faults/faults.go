// Package faults provides a deterministic, seeded fault plan for the
// wired backbone and the support stations: per-link drop / duplicate /
// delay probabilities (delays double as reordering), timed bidirectional
// partitions between MSS groups, and scheduled MSS crash/restart
// windows.
//
// The Injector implements netsim.FaultHook, so it plugs into any
// netsim.Wired (and, through the same hook, into tcpnet's simulated
// fault mode); crash windows are armed on the sim kernel via Schedule.
// All randomness flows through a single forked RNG stream, so a plan is
// byte-reproducible under a fixed seed.
package faults

import (
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// LinkFaults is the per-attempt fault distribution of one directed
// wired link (or the plan-wide default).
type LinkFaults struct {
	// DropProb loses the attempt.
	DropProb float64
	// DupProb delivers an extra copy.
	DupProb float64
	// DelayProb adds extra latency, uniform in (0, DelayMax]; a delayed
	// frame may be overtaken by its successors (reordering).
	DelayProb float64
	DelayMax  time.Duration
}

// Link names one directed wired link.
type Link struct {
	From ids.NodeID
	To   ids.NodeID
}

// Partition cuts every wired link between group A and group B (both
// directions) during [Start, End).
type Partition struct {
	Start time.Duration
	End   time.Duration
	A     []ids.MSS
	B     []ids.MSS
}

// Crash schedules one MSS outage: the station crashes at At (losing its
// volatile state) and restarts at RestartAt. A zero RestartAt means the
// station stays down for the rest of the run.
type Crash struct {
	MSS       ids.MSS
	At        time.Duration
	RestartAt time.Duration
}

// Disconnect schedules one MH disconnection window (E17): the host
// drops off the radio at At — issued requests journal to the offline
// queue — and reconnects at ReconnectAt, replaying the queue. A zero
// ReconnectAt leaves the host disconnected for the rest of the run.
type Disconnect struct {
	MH          ids.MH
	At          time.Duration
	ReconnectAt time.Duration
}

// MHCrash schedules one mobile-host crash/restart window (E18): the
// host crashes at At — losing ALL volatile state (seen-set, outstanding
// table, in-flight batches, backoff timers) — and reboots at RestartAt
// under a fresh incarnation number drawn from its non-volatile flash.
// A zero RestartAt leaves the host dead for the rest of the run; its
// orphaned proxy is reclaimed by the lease GC.
type MHCrash struct {
	MH        ids.MH
	At        time.Duration
	RestartAt time.Duration
}

// Slowdown makes one MSS process every inbox message Extra slower
// during [Start, End) — the slow-station fault mode of E11 (an
// overloaded or thermally throttled support station, not a crashed
// one: the station stays up, its queue just grows).
type Slowdown struct {
	MSS   ids.MSS
	Start time.Duration
	End   time.Duration
	Extra time.Duration
}

// LoadSpike multiplies the offered client load by Factor during
// [Start, End). The injector only reports the factor (LoadFactor);
// the workload driver samples it when spacing requests.
type LoadSpike struct {
	Start  time.Duration
	End    time.Duration
	Factor float64
}

// Plan is a complete declarative fault schedule.
type Plan struct {
	// Default applies to every wired link without a Links override.
	Default LinkFaults
	// Links overrides the distribution per directed link.
	Links map[Link]LinkFaults
	// Partitions lists timed bidirectional partitions.
	Partitions []Partition
	// Crashes lists MSS crash/restart windows.
	Crashes []Crash
	// Disconnects lists MH disconnection windows (E17).
	Disconnects []Disconnect
	// MHCrashes lists MH crash/restart windows (E18).
	MHCrashes []MHCrash
	// Slowdowns lists timed per-station processing slowdowns.
	Slowdowns []Slowdown
	// Spikes lists timed offered-load multipliers.
	Spikes []LoadSpike
}

// Stats counts what the injector actually did, for the metrics layer.
type Stats struct {
	// Drops, Dups and Delays count injected link faults by type.
	Drops  metrics.Counter
	Dups   metrics.Counter
	Delays metrics.Counter
	// PartitionDrops counts frames cut by an active partition (also
	// included in Drops).
	PartitionDrops metrics.Counter
	// Crashes and Restarts count executed schedule entries.
	Crashes  metrics.Counter
	Restarts metrics.Counter
	// Disconnects and Reconnects count executed disconnection windows.
	Disconnects metrics.Counter
	Reconnects  metrics.Counter
	// MHCrashes and MHRestarts count executed mobile-host outage
	// windows (E18).
	MHCrashes  metrics.Counter
	MHRestarts metrics.Counter
}

// Injector executes a Plan. It implements netsim.FaultHook.
type Injector struct {
	k     sim.Scheduler
	plan  Plan
	rng   *sim.RNG
	Stats Stats
}

var _ netsim.FaultHook = (*Injector)(nil)

// New builds an injector for the plan, drawing from a forked stream of
// the scheduler's RNG.
func New(k sim.Scheduler, plan Plan) *Injector {
	return &Injector{k: k, plan: plan, rng: k.RNG().Fork()}
}

// OnWired decides the fault for one physical transmission attempt. The
// partition check runs first (no RNG draw); then drop, duplicate and
// delay are sampled in a fixed order so the stream stays reproducible.
func (inj *Injector) OnWired(from, to ids.NodeID) netsim.LinkFault {
	if inj.partitioned(from, to) {
		inj.Stats.PartitionDrops.Inc()
		inj.Stats.Drops.Inc()
		return netsim.LinkFault{Drop: true}
	}
	lf := inj.plan.Default
	if o, ok := inj.plan.Links[Link{From: from, To: to}]; ok {
		lf = o
	}
	var f netsim.LinkFault
	if inj.rng.Prob(lf.DropProb) {
		f.Drop = true
		inj.Stats.Drops.Inc()
	}
	if inj.rng.Prob(lf.DupProb) {
		f.Duplicate = true
		inj.Stats.Dups.Inc()
	}
	if inj.rng.Prob(lf.DelayProb) && lf.DelayMax > 0 {
		f.Delay = inj.rng.Uniform(time.Nanosecond, lf.DelayMax)
		inj.Stats.Delays.Inc()
	}
	return f
}

// partitioned reports whether an active partition cuts the (from, to)
// link at the current instant.
func (inj *Injector) partitioned(from, to ids.NodeID) bool {
	if len(inj.plan.Partitions) == 0 {
		return false
	}
	if from.Kind != ids.KindMSS || to.Kind != ids.KindMSS {
		return false
	}
	now := time.Duration(inj.k.Now())
	fm, tm := ids.MSS(from.Num), ids.MSS(to.Num)
	for _, p := range inj.plan.Partitions {
		if now < p.Start || now >= p.End {
			continue
		}
		if (contains(p.A, fm) && contains(p.B, tm)) ||
			(contains(p.B, fm) && contains(p.A, tm)) {
			return true
		}
	}
	return false
}

func contains(set []ids.MSS, m ids.MSS) bool {
	for _, x := range set {
		if x == m {
			return true
		}
	}
	return false
}

// ExtraProcDelay returns the processing slowdown in force for the
// station at the current instant (the sum of overlapping windows).
// Assign it to rdpcore's Config.StationDelayHook.
func (inj *Injector) ExtraProcDelay(m ids.MSS) time.Duration {
	var extra time.Duration
	now := time.Duration(inj.k.Now())
	for _, s := range inj.plan.Slowdowns {
		if s.MSS == m && now >= s.Start && now < s.End {
			extra += s.Extra
		}
	}
	return extra
}

// LoadFactor returns the offered-load multiplier in force at the given
// instant (the product of overlapping spikes; 1 with none active).
// Workload drivers divide their inter-request gaps by it.
func (inj *Injector) LoadFactor(at time.Duration) float64 {
	factor := 1.0
	for _, s := range inj.plan.Spikes {
		if at >= s.Start && at < s.End && s.Factor > 0 {
			factor *= s.Factor
		}
	}
	return factor
}

// Schedule arms the plan's crash/restart windows on the kernel. The
// callbacks are typically World.CrashMSS and World.RestartMSS.
func (inj *Injector) Schedule(crash, restart func(ids.MSS)) {
	for _, c := range inj.plan.Crashes {
		c := c
		inj.k.Defer(c.At, func() {
			inj.Stats.Crashes.Inc()
			crash(c.MSS)
		})
		if c.RestartAt > c.At {
			inj.k.Defer(c.RestartAt, func() {
				inj.Stats.Restarts.Inc()
				restart(c.MSS)
			})
		}
	}
}

// ScheduleDisconnects arms the plan's MH disconnection windows. The
// callbacks are typically World.Disconnect and World.Reconnect.
func (inj *Injector) ScheduleDisconnects(disconnect, reconnect func(ids.MH)) {
	for _, d := range inj.plan.Disconnects {
		d := d
		inj.k.Defer(d.At, func() {
			inj.Stats.Disconnects.Inc()
			disconnect(d.MH)
		})
		if d.ReconnectAt > d.At {
			inj.k.Defer(d.ReconnectAt, func() {
				inj.Stats.Reconnects.Inc()
				reconnect(d.MH)
			})
		}
	}
}

// ScheduleMHCrashes arms the plan's mobile-host crash/restart windows.
// The callbacks are typically World.CrashMH and World.RestartMH.
func (inj *Injector) ScheduleMHCrashes(crash, restart func(ids.MH)) {
	for _, c := range inj.plan.MHCrashes {
		c := c
		inj.k.Defer(c.At, func() {
			inj.Stats.MHCrashes.Inc()
			crash(c.MH)
		})
		if c.RestartAt > c.At {
			inj.k.Defer(c.RestartAt, func() {
				inj.Stats.MHRestarts.Inc()
				restart(c.MH)
			})
		}
	}
}
