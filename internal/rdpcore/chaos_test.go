package rdpcore

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/proxymig"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/wtp"
)

// recoveryConfig returns a Config with the full E10 recovery stack on:
// wired ARQ, stable-store checkpointing, hand-off timeouts, registration
// confirmations and the client-side shims that make delivery eventual
// under crashes.
func recoveryConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.WiredARQ = netsim.ARQConfig{Enabled: true, RTO: 60 * time.Millisecond, MaxBackoff: 500 * time.Millisecond}
	cfg.Checkpoint = true
	cfg.RecoveryGrace = 600 * time.Millisecond
	cfg.HandoffTimeout = 500 * time.Millisecond
	cfg.RegConfirm = true
	return cfg
}

// TestCrashRecoveryRedeliversResult crashes the station hosting an MH's
// proxy while the server is still processing. The wired ARQ holds the
// reply addressed to the down station and delivers it after the
// checkpointed restart; the restored proxy forwards it exactly once.
func TestCrashRecoveryRedeliversResult(t *testing.T) {
	cfg := recoveryConfig(1)
	cfg.NumMSS = 2
	cfg.ServerProc = netsim.Constant(300 * time.Millisecond)
	w := NewWorld(cfg)
	mh := w.AddMH(1, 1)

	var req ids.RequestID
	w.Schedule(0, func() { req = mh.IssueRequest(1, []byte("crash")) })
	w.Schedule(100*time.Millisecond, func() { w.CrashMSS(1) })
	w.Schedule(400*time.Millisecond, func() { w.RestartMSS(1) })
	w.RunUntil(3 * time.Second)

	if !mh.Seen(req) {
		t.Fatalf("result not delivered after crash/restart (delivered=%d wiredDrops=%d)",
			w.Stats.ResultsDelivered.Value(), w.Stats.WiredDrops.Value())
	}
	if got := w.Stats.DuplicateDeliveries.Value(); got != 0 {
		t.Errorf("DuplicateDeliveries = %d, want 0", got)
	}
	if c, r := w.Stats.MSSCrashes.Value(), w.Stats.MSSRestarts.Value(); c != 1 || r != 1 {
		t.Errorf("crashes/restarts = %d/%d, want 1/1", c, r)
	}
	if w.Stats.WiredDrops.Value() == 0 {
		t.Error("no wired drops recorded; the reply should have hit the down station")
	}
	if w.CheckpointWrites() == 0 {
		t.Error("no checkpoint writes recorded despite Config.Checkpoint")
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestCrashRecoveryReissuesServerRequest disables the wired ARQ, so the
// server reply that hits the down station is lost for good. The
// checkpointed journal still knows the request has no result: the
// post-restart recovery pass re-issues it to the server.
func TestCrashRecoveryReissuesServerRequest(t *testing.T) {
	cfg := recoveryConfig(1)
	// No ARQ — and therefore no causal order either: a permanently
	// dropped frame would wedge every causally-later message at the
	// destination (see netsim.WiredConfig.Faults).
	cfg.WiredARQ = netsim.ARQConfig{}
	cfg.Causal = false
	cfg.NumMSS = 2
	cfg.ServerProc = netsim.Constant(300 * time.Millisecond)
	w := NewWorld(cfg)
	mh := w.AddMH(1, 1)

	var req ids.RequestID
	w.Schedule(0, func() { req = mh.IssueRequest(1, []byte("lost-reply")) })
	w.Schedule(100*time.Millisecond, func() { w.CrashMSS(1) })
	w.Schedule(400*time.Millisecond, func() { w.RestartMSS(1) })
	w.RunUntil(3 * time.Second)

	if !mh.Seen(req) {
		t.Fatalf("result not recovered via re-issued server request (recoveryResends=%d)",
			w.Stats.RecoveryResends.Value())
	}
	if got := w.Stats.RecoveryResends.Value(); got == 0 {
		t.Error("RecoveryResends = 0; recovery pass should have re-issued the request")
	}
	if got := w.Stats.DuplicateDeliveries.Value(); got != 0 {
		t.Errorf("DuplicateDeliveries = %d, want 0", got)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestCrashAmnesiaLosesResult is the ablation: same outage, but without
// checkpointing or ARQ the restarted station remembers nothing and the
// lost reply is never recovered.
func TestCrashAmnesiaLosesResult(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumMSS = 2
	cfg.ServerProc = netsim.Constant(300 * time.Millisecond)
	w := NewWorld(cfg)
	mh := w.AddMH(1, 1)

	var req ids.RequestID
	w.Schedule(0, func() { req = mh.IssueRequest(1, []byte("doomed")) })
	w.Schedule(100*time.Millisecond, func() { w.CrashMSS(1) })
	w.Schedule(400*time.Millisecond, func() { w.RestartMSS(1) })
	w.RunUntil(3 * time.Second)

	if mh.Seen(req) {
		t.Error("amnesiac restart delivered the result; ablation should lose it")
	}
	if got := w.Stats.ResultsDelivered.Value(); got != 0 {
		t.Errorf("ResultsDelivered = %d, want 0 without checkpoint/ARQ", got)
	}
}

// TestLeaseBeatSingleChainAcrossQuickRestart: a station that restarts
// before its pre-crash heartbeat timer comes due still runs one heartbeat
// chain, not two — the old timer died with the crash (MSSNode.after) — so
// a long-lived proxy hears as many heartbeats with the outage as without.
func TestLeaseBeatSingleChainAcrossQuickRestart(t *testing.T) {
	beats := func(outage bool) int64 {
		cfg := recoveryConfig(1)
		cfg.NumMSS = 1
		cfg.LeaseTTL = 3 * time.Second                     // a beat every second
		cfg.ServerProc = netsim.Constant(60 * time.Second) // the proxy outlives the run
		w := NewWorld(cfg)
		mh := w.AddMH(1, 1)
		w.Schedule(0, func() { mh.IssueRequest(1, []byte("slow")) })
		if outage {
			w.Schedule(1200*time.Millisecond, func() { w.CrashMSS(1) })
			w.Schedule(1300*time.Millisecond, func() { w.RestartMSS(1) })
		}
		// Half a period past the 30th second: the restarted chain beats 0.3 s
		// after the original one would have.
		w.RunUntil(30*time.Second + 500*time.Millisecond)
		if w.TotalProxies() != 1 {
			t.Fatalf("outage %v: %d proxies, want the one leased proxy alive", outage, w.TotalProxies())
		}
		return w.Stats.LeaseHeartbeats.Value()
	}
	if calm, crashed := beats(false), beats(true); calm != crashed || calm < 30 {
		t.Errorf("%d heartbeats without the outage, %d with it; want equal, one a second", calm, crashed)
	}
}

// TestPerHostWalksRepeat: a station's lease beats and its recovery
// re-announcements send one message per registered host, walking the
// pref table in ascending MH order (prefTable.forEachSorted). Two runs of
// the same world in one process must record the same trace byte for byte
// — map order differs between the runs, so a walk in map order would
// shuffle the sends. Station 1 starts with 32 hosts and hands 16 to
// station 2, which holds 32 (16 whose proxies stay at station 1) when
// it crashes; each host's proxy outlives the run.
func TestPerHostWalksRepeat(t *testing.T) {
	run := func(aggregated bool) (string, *World) {
		cfg := recoveryConfig(1)
		cfg.NumMSS = 2
		cfg.LeaseTTL = 3 * time.Second // a beat every second
		cfg.ServerProc = netsim.Constant(60 * time.Second)
		cfg.AggregatedState = aggregated
		rec := trace.New()
		cfg.Observer = rec.Observe
		w := NewWorld(cfg)
		var hosts []*MHNode
		for mh := ids.MH(1); mh <= 48; mh++ {
			hosts = append(hosts, w.AddMH(mh, ids.MSS(1+(mh-1)/32)))
		}
		w.Schedule(0, func() {
			for _, h := range hosts {
				h.IssueRequest(1, []byte("q"))
			}
		})
		for mh := ids.MH(1); mh <= 16; mh++ {
			w.Schedule(200*time.Millisecond, func() { w.Migrate(mh, 2) })
		}
		w.Schedule(1500*time.Millisecond, func() { w.CrashMSS(2) })
		w.Schedule(1700*time.Millisecond, func() { w.RestartMSS(2) })
		w.RunUntil(5 * time.Second)
		return rec.String(), w
	}
	for _, aggregated := range []bool{false, true} {
		first, w := run(aggregated)
		if beats := w.Stats.LeaseHeartbeats.Value(); beats < 3*48 {
			t.Errorf("aggregated=%v: %d lease heartbeats, want at least three rounds of 48", aggregated, beats)
		}
		if resends := w.Stats.RecoveryResends.Value(); resends < 16 {
			t.Errorf("aggregated=%v: %d recovery re-sends, want the 16 remote proxies' re-announcements", aggregated, resends)
		}
		if second, _ := run(aggregated); second != first {
			t.Errorf("aggregated=%v: two runs of one world recorded different traces", aggregated)
		}
	}
}

// TestHandoffTimeoutUnsticksCrashedOldStation migrates an MH away from a
// station that crashed with its dereg unreachable (no ARQ). The new
// station's hand-off timer re-issues the dereg until the old one
// restarts, replays its journal and serves it.
func TestHandoffTimeoutUnsticksCrashedOldStation(t *testing.T) {
	cfg := recoveryConfig(1)
	cfg.WiredARQ = netsim.ARQConfig{} // with causal order off, as above
	cfg.Causal = false
	cfg.HandoffTimeout = 150 * time.Millisecond
	cfg.NumMSS = 2
	cfg.ServerProc = netsim.Constant(time.Second)
	w := NewWorld(cfg)
	mh := w.AddMH(1, 1)

	var req ids.RequestID
	w.Schedule(0, func() { req = mh.IssueRequest(1, []byte("handoff")) })
	w.Schedule(100*time.Millisecond, func() { w.CrashMSS(1) })
	w.Schedule(200*time.Millisecond, func() { w.Migrate(1, 2) })
	w.Schedule(600*time.Millisecond, func() { w.RestartMSS(1) })
	w.RunUntil(5 * time.Second)

	if !mh.Seen(req) {
		t.Fatalf("result not delivered after hand-off across crash (reissues=%d handoffs=%d)",
			w.Stats.HandoffReissues.Value(), w.Stats.Handoffs.Value())
	}
	if got := w.Stats.HandoffReissues.Value(); got == 0 {
		t.Error("HandoffReissues = 0; the dereg to the down station should have been re-issued")
	}
	if got := w.Stats.DuplicateDeliveries.Value(); got != 0 {
		t.Errorf("DuplicateDeliveries = %d, want 0", got)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// chaosParams configures one randomized fault-injected run.
type chaosParams struct {
	seed     int64
	mhs      int
	cells    int
	recovery bool
	// overload layers the E11 protection stack (admission control,
	// priority classes, busy backoff, bounded link queues) over the
	// recovery stack and adds station slowdowns plus an offered-load
	// spike to the fault plan.
	overload bool
	// migrate turns on hop-threshold proxy migration, so migration
	// episodes race the crash windows, the partition and (with overload)
	// the load spike.
	migrate bool
	// disconnect takes every third MH out of radio coverage for a
	// twelve-second window overlapping both crash windows (E17):
	// requests issued inside the window journal to the offline queue
	// and must replay to completion after reconnection.
	disconnect bool
	// mhcrash crashes every fourth MH with amnesia mid-run (E18): the
	// victims reboot under a fresh incarnation three seconds later —
	// except the last, which stays dead so the lease GC must reclaim
	// whatever it orphaned. Delivery is then judged incarnation-scoped:
	// requests issued by a dead incarnation are exempt, everything else
	// must still arrive.
	mhcrash bool
	// windowed carries every downlink over the E15 windowed transport
	// and makes the radio itself lossy (10% per frame, both directions),
	// so window timers, SACK recovery and link resets race hand-offs,
	// station crashes and incarnation bumps.
	windowed bool
	// aggregated switches the stations to the E16 aggregated location
	// representation (set-backed responsibility and pref tables) with no
	// GroupTopic, so sharing never engages: the run must be externally
	// indistinguishable from the faithful representation.
	aggregated bool
	// observer is installed as Config.Observer.
	observer netsim.Observer
	// boxed builds the world on wrappers of the netsim substrates that
	// box every leg at every door (boxedWorld).
	boxed bool
	// deadline is Config.RequestDeadline.
	deadline time.Duration
	// keepDead gives the world retry and deadline FIFOs that drop no
	// call: each fires at its due, dead or not, as its own event did.
	keepDead bool
	horizon  time.Duration
	drainFor time.Duration
}

// chaosPlan builds the fault schedule for a run: lossy, duplicating,
// reordering wired links, one two-second partition, and two MSS outages
// that both restart well before the horizon.
func chaosPlan() faults.Plan {
	return faults.Plan{
		Default: faults.LinkFaults{
			DropProb:  0.10,
			DupProb:   0.03,
			DelayProb: 0.10,
			DelayMax:  20 * time.Millisecond,
		},
		Partitions: []faults.Partition{
			{Start: 10 * time.Second, End: 12 * time.Second, A: []ids.MSS{1, 2}, B: []ids.MSS{3, 4}},
		},
		Crashes: []faults.Crash{
			{MSS: 2, At: 15 * time.Second, RestartAt: 18 * time.Second},
			{MSS: 4, At: 25 * time.Second, RestartAt: 28 * time.Second},
		},
	}
}

// chaos drives a randomized world under an adversarial fault plan. With
// p.recovery the full ARQ + checkpoint + timeout stack is on and every
// issued request must be delivered by the end of the drain; without it
// the run is the ablation and the caller asserts degradation instead.
// Invariants are checked only at the end: while a station is down, prefs
// legitimately reference proxies whose host has (transiently) forgotten
// them.
func chaos(t *testing.T, p chaosParams) (w *World, missing, total, admittedLost int) {
	t.Helper()
	var cfg Config
	if p.recovery {
		cfg = recoveryConfig(p.seed)
		cfg.GreetRefresh = 2 * time.Second
		cfg.RequestTimeout = 3 * time.Second
	} else {
		cfg = DefaultConfig()
		cfg.Seed = p.seed
		// The ablation drops frames for good; causal order would turn
		// each drop into a permanent wedge of the destination, so it is
		// off here (the E10 ablation configuration).
		cfg.Causal = false
	}
	cfg.NumMSS = p.cells
	cfg.NumServers = 2
	cfg.WiredLatency = netsim.Uniform{Lo: time.Millisecond, Hi: 15 * time.Millisecond}
	cfg.WirelessLatency = netsim.Constant(20 * time.Millisecond)
	cfg.ServerProc = netsim.Exponential{MeanDelay: 300 * time.Millisecond, Floor: 20 * time.Millisecond}
	cfg.Observer = p.observer
	cfg.RequestDeadline = p.deadline

	if p.windowed {
		cfg.WirelessWTP = wtp.Config{Enabled: true}
		cfg.WirelessLoss = 0.10
	}

	if p.aggregated {
		cfg.AggregatedState = true // representation only; GroupTopic stays nil
	}

	plan := chaosPlan()
	if p.overload {
		cfg.ProcDelay = 3 * time.Millisecond
		cfg.PriorityClasses = true
		cfg.AdmissionHighWater = 8
		cfg.BusyRetryBase = 200 * time.Millisecond
		cfg.WiredQueueLimit = 4
		cfg.WirelessQueueLimit = 1
		plan.Slowdowns = []faults.Slowdown{
			{MSS: 1, Start: 20 * time.Second, End: 32 * time.Second, Extra: 15 * time.Millisecond},
			{MSS: 3, Start: 24 * time.Second, End: 36 * time.Second, Extra: 15 * time.Millisecond},
		}
		plan.Spikes = []faults.LoadSpike{
			{Start: 20 * time.Second, End: 30 * time.Second, Factor: 3},
		}
	}

	if p.migrate {
		// The flat station metric makes every remote forward distance 1,
		// so threshold 1 fires on any triangle route; the cooldown keeps
		// an MH ping-ponging between cells from dragging its proxy along
		// on every hand-off.
		cfg.Migration = proxymig.Policy{
			HopThreshold:    1,
			MinInterval:     750 * time.Millisecond,
			TombstoneLinger: 1500 * time.Millisecond,
		}
	}

	if p.disconnect {
		// The window overlaps the MSS 2 outage entirely and opens
		// against the MSS 4 crash instant, so replay races restart
		// recovery and (with p.migrate) in-flight migrations.
		for i := 1; i <= p.mhs; i += 3 {
			plan.Disconnects = append(plan.Disconnects, faults.Disconnect{
				MH: ids.MH(i), At: 14 * time.Second, ReconnectAt: 26 * time.Second,
			})
		}
	}

	if p.mhcrash {
		// The crash instant sits inside the disconnection window (with
		// p.disconnect, victim 1 reboots while still out of coverage and
		// must filter its offline journal) and between the two MSS
		// outages. The last victim never restarts.
		cfg.LeaseTTL = 5 * time.Second
		for i := 1; i <= p.mhs; i += 4 {
			plan.MHCrashes = append(plan.MHCrashes, faults.MHCrash{
				MH: ids.MH(i), At: 20 * time.Second, RestartAt: 23 * time.Second,
			})
		}
		plan.MHCrashes[len(plan.MHCrashes)-1].RestartAt = 0
	}

	// The injector draws from its own forked RNG stream, so the workload
	// below is identical with and without recovery.
	k := sim.NewKernel(cfg.Seed)
	inj := faults.New(k, plan)
	cfg.WiredFaults = inj
	if p.overload {
		cfg.StationDelayHook = inj.ExtraProcDelay
	}
	if p.boxed {
		w = boxedWorld(k, cfg)
	} else {
		w = NewWorldOn(k, cfg)
	}
	if p.keepDead {
		live := func(hostTimer) bool { return false }
		w.retries = sim.NewTimeouts(w.Kernel, cfg.RequestTimeout, hostTimer.fire, live)
		w.deadlines = sim.NewTimeouts(w.Kernel, cfg.RequestDeadline, hostTimer.fire, live)
	}
	inj.Schedule(w.CrashMSS, w.RestartMSS)
	inj.ScheduleDisconnects(w.Disconnect, w.Reconnect)
	inj.ScheduleMHCrashes(w.CrashMH, w.RestartMH)

	cells := w.StationList()
	issueUntil := p.horizon - p.drainFor
	// Each request is remembered with the incarnation that issued it:
	// the delivery judgment below exempts requests whose incarnation
	// died (without p.mhcrash every incarnation is FirstIncarnation and
	// nothing is exempt).
	type chaosReq struct {
		req ids.RequestID
		inc ids.Incarnation
	}
	reqs := make(map[ids.MH][]chaosReq)
	for i := 1; i <= p.mhs; i++ {
		mhID := ids.MH(i)
		rng := w.Kernel.RNG().Fork()
		start := cells[rng.Intn(len(cells))]
		mh := w.AddMH(mhID, start)
		mob := workload.Mobility{
			Picker:    workload.UniformCells{Cells: cells},
			Residence: netsim.Exponential{MeanDelay: 1500 * time.Millisecond, Floor: 100 * time.Millisecond},
		}
		for _, ev := range workload.Itinerary(rng, mob, start, issueUntil) {
			ev := ev
			w.Kernel.Defer(ev.At, func() {
				// A host out of coverage stays put (the E17 drivers
				// suppress moves the same way); no-op without p.disconnect.
				if ev.Kind == workload.EvMigrate && !w.IsDisconnected(mhID) {
					w.Migrate(mhID, ev.Cell)
				}
			})
		}
		reqCfg := workload.Requests{
			Interarrival: netsim.Exponential{MeanDelay: 900 * time.Millisecond, Floor: 10 * time.Millisecond},
			Servers:      []ids.Server{1, 2},
			PayloadBytes: 24,
		}
		for _, a := range workload.Schedule(rng, reqCfg, issueUntil) {
			a := a
			// An active load spike multiplies the offered rate by issuing
			// extra copies of the arrival (overload mode only; the copies
			// draw no randomness, so the base schedule stays identical).
			copies := 1
			if p.overload {
				if f := int(inj.LoadFactor(a.At)); f > copies {
					copies = f
				}
			}
			for c := 0; c < copies; c++ {
				at := a.At + time.Duration(c)*7*time.Millisecond
				w.Kernel.Defer(at, func() {
					if r := mh.IssueRequest(a.Server, a.Payload); r.Seq != 0 {
						reqs[mhID] = append(reqs[mhID], chaosReq{req: r, inc: w.IncarnationOf(mhID)})
					}
				})
			}
		}
	}

	w.RunUntil(p.horizon)

	for mhID, rs := range reqs {
		mh := w.MHs[mhID]
		for _, cr := range rs {
			if w.IsCrashed(mhID) || cr.inc != w.IncarnationOf(mhID) {
				// The issuing incarnation died with its memory (E18);
				// the delivery guarantee covers survivors only.
				continue
			}
			total++
			if !mh.Seen(cr.req) {
				missing++
				if mh.Admitted(cr.req) {
					admittedLost++
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("chaos issued no requests; parameters degenerate")
	}
	if got := w.Stats.MSSCrashes.Value(); got != 2 {
		t.Errorf("MSSCrashes = %d, want 2 (plan executed?)", got)
	}
	return w, missing, total, admittedLost
}

// TestChaosSoakRecovery asserts the headline E10 guarantee at soak
// scale: under 10% wired loss, duplication, reordering, a partition and
// two MSS crash/restart windows, the recovery stack still delivers every
// result, with bounded duplicates.
func TestChaosSoakRecovery(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w, missing, total, _ := chaos(t, chaosParams{
				seed: seed, mhs: 8, cells: 5, recovery: true,
				horizon: 60 * time.Second, drainFor: 30 * time.Second,
			})
			if missing != 0 {
				t.Errorf("%d of %d requests undelivered under chaos (delivered=%d wiredDrops=%d recoveryResends=%d)",
					missing, total, w.Stats.ResultsDelivered.Value(),
					w.Stats.WiredDrops.Value(), w.Stats.RecoveryResends.Value())
			}
			// Crash-window races and client retries may duplicate a few
			// deliveries; the MH detects all of them (assumption 5). Only a
			// storm would be a bug.
			if dup, del := w.Stats.DuplicateDeliveries.Value(), w.Stats.ResultsDelivered.Value(); dup*10 > del {
				t.Errorf("DuplicateDeliveries = %d of %d delivered; duplicate storm", dup, del)
			}
			if err := w.CheckInvariants(); err != nil {
				t.Errorf("invariants at end: %v", err)
			}
			if w.Stats.WiredDrops.Value() == 0 {
				t.Error("no wired drops recorded; fault plan inactive?")
			}
		})
	}
}

// TestDeadHostTimersDoNothing: a host's retry or deadline that is dead
// when it reaches the head of its FIFO is dropped without an event, so
// hostTimer.dead must say exactly that the timer would do nothing, for
// good. Under chaos — station crashes, busy re-issues and request
// deadlines under overload, migration, disconnections and host amnesia —
// the run counts every Stats counter as a run whose FIFOs drop nothing,
// and runs fewer kernel steps.
func TestDeadHostTimersDoNothing(t *testing.T) {
	for _, p := range []chaosParams{
		{seed: 4, mhs: 8, cells: 5, recovery: true, overload: true, migrate: true, deadline: 1500 * time.Millisecond},
		{seed: 5, mhs: 8, cells: 5, recovery: true, migrate: true, mhcrash: true, disconnect: true, deadline: 4 * time.Second},
	} {
		p.horizon, p.drainFor = 40*time.Second, 15*time.Second
		w, _, _, _ := chaos(t, p)
		p.keepDead = true
		ref, _, _, _ := chaos(t, p)
		got, want := statsCounters(w.Stats), statsCounters(ref.Stats)
		for name, v := range want {
			if got[name] != v {
				t.Errorf("seed %d: %s = %d, %d when no dead timer is dropped", p.seed, name, got[name], v)
			}
		}
		steps, refSteps := w.Kernel.(*sim.Kernel).Steps(), ref.Kernel.(*sim.Kernel).Steps()
		if steps >= refSteps {
			t.Errorf("seed %d: %d kernel steps, %d when no dead timer is dropped: nothing was dropped", p.seed, steps, refSteps)
		}
		if w.Stats.RequestRetries.Value() == 0 || w.Stats.RequestsAbandoned.Value() == 0 {
			t.Errorf("seed %d: %d retries, %d abandoned: the run must exercise both FIFOs", p.seed,
				w.Stats.RequestRetries.Value(), w.Stats.RequestsAbandoned.Value())
		}
	}
}

// TestChaosAblationDegrades runs the identical fault plan with the whole
// recovery stack off: permanent wired drops and amnesiac restarts must
// lose results.
func TestChaosAblationDegrades(t *testing.T) {
	_, missing, total, _ := chaos(t, chaosParams{
		seed: 1, mhs: 8, cells: 5, recovery: false,
		horizon: 60 * time.Second, drainFor: 30 * time.Second,
	})
	if missing == 0 {
		t.Errorf("ablation delivered all %d requests; faults should have lost some", total)
	}
}

// TestChaosOverloadAdmittedNeverLost is the property soak for the E11
// protection stack under full chaos: random wired loss, duplication and
// reordering, a partition, two MSS crash/restart windows, station
// slowdowns, an offered-load spike, and bounded queues shedding frames
// on both substrates. The property: a request whose admission was
// acknowledged to the client is never lost (and the MH's duplicate
// detection keeps every delivery exactly-once at the application); with
// the client-side retry machinery on top, every issued request is in
// fact delivered, and the overload shows up only as explicit busy
// refusals and recovered sheds.
func TestChaosOverloadAdmittedNeverLost(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w, missing, total, admittedLost := chaos(t, chaosParams{
				seed: seed, mhs: 8, cells: 5, recovery: true, overload: true,
				horizon: 60 * time.Second, drainFor: 30 * time.Second,
			})
			if admittedLost != 0 {
				t.Errorf("%d admitted requests lost under shedding chaos, want 0", admittedLost)
			}
			if missing != 0 {
				t.Errorf("%d of %d requests undelivered (refusals=%d shed=%d busyRetries=%d)",
					missing, total, w.Stats.BusyRefusals.Value(),
					w.Stats.NetworkShed.Value(), w.Stats.BusyRetries.Value())
			}
			if w.Stats.BusyRefusals.Value() == 0 {
				t.Error("no busy refusals; the overload machinery never engaged")
			}
			if w.Stats.NetworkShed.Value() == 0 {
				t.Error("no network sheds; bounded queues never engaged")
			}
			if dup, del := w.Stats.DuplicateDeliveries.Value(), w.Stats.ResultsDelivered.Value(); dup*10 > del {
				t.Errorf("DuplicateDeliveries = %d of %d delivered; duplicate storm", dup, del)
			}
			if err := w.CheckInvariants(); err != nil {
				t.Errorf("invariants at end: %v", err)
			}
		})
	}
}

// TestChaosMigrationRecovery soaks proxy migration under the full E10
// fault plan: migration episodes race 10% wired loss, duplication,
// reordering, a partition, and two MSS crash/restart windows — one of
// which can land mid-handshake, leaving tombstones and reservations to
// the journal. Every request must still be delivered, without a
// duplicate storm, and every migration that engaged must drain.
func TestChaosMigrationRecovery(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w, missing, total, _ := chaos(t, chaosParams{
				seed: seed, mhs: 8, cells: 5, recovery: true, migrate: true,
				horizon: 60 * time.Second, drainFor: 30 * time.Second,
			})
			if missing != 0 {
				t.Errorf("%d of %d requests undelivered with migration on (migOffers=%d migCompleted=%d recoveryResends=%d)",
					missing, total, w.Stats.MigOffers.Value(),
					w.Stats.MigCompleted.Value(), w.Stats.RecoveryResends.Value())
			}
			if w.Stats.MigCompleted.Value() == 0 {
				t.Error("MigCompleted = 0; migration never engaged under chaos")
			}
			if dup, del := w.Stats.DuplicateDeliveries.Value(), w.Stats.ResultsDelivered.Value(); dup*10 > del {
				t.Errorf("DuplicateDeliveries = %d of %d delivered; duplicate storm", dup, del)
			}
			if err := w.CheckInvariants(); err != nil {
				t.Errorf("invariants at end: %v", err)
			}
		})
	}
}

// TestChaosMigrationOverloadAdmittedNeverLost composes all three
// subsystems: migration episodes fire during the E11 load spike and
// station slowdowns while the E10 fault plan crashes stations.
// Admission control must keep counting inbound migrations as proxy
// pressure, migration control must survive shedding (it rides the
// never-shed wired signaling class), and no admitted request may be
// lost.
func TestChaosMigrationOverloadAdmittedNeverLost(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w, missing, total, admittedLost := chaos(t, chaosParams{
				seed: seed, mhs: 8, cells: 5, recovery: true, overload: true, migrate: true,
				horizon: 60 * time.Second, drainFor: 30 * time.Second,
			})
			if admittedLost != 0 {
				t.Errorf("%d admitted requests lost with migration + overload chaos, want 0", admittedLost)
			}
			if missing != 0 {
				t.Errorf("%d of %d requests undelivered (refusals=%d shed=%d migOffers=%d)",
					missing, total, w.Stats.BusyRefusals.Value(),
					w.Stats.NetworkShed.Value(), w.Stats.MigOffers.Value())
			}
			if w.Stats.MigOffers.Value() == 0 {
				t.Error("MigOffers = 0; migration never engaged")
			}
			if dup, del := w.Stats.DuplicateDeliveries.Value(), w.Stats.ResultsDelivered.Value(); dup*10 > del {
				t.Errorf("DuplicateDeliveries = %d of %d delivered; duplicate storm", dup, del)
			}
			if err := w.CheckInvariants(); err != nil {
				t.Errorf("invariants at end: %v", err)
			}
		})
	}
}

// TestChaosDisconnectRecovery soaks the E17 disconnected-operation
// machinery under the full E10 fault plan: every third MH loses radio
// coverage for twelve seconds spanning both MSS crash windows, keeps
// issuing into the offline queue, and replays it on reconnection. Every
// request — journaled or not — must still be delivered by the end of
// the drain, with bounded duplicates.
func TestChaosDisconnectRecovery(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w, missing, total, _ := chaos(t, chaosParams{
				seed: seed, mhs: 8, cells: 5, recovery: true, disconnect: true,
				horizon: 60 * time.Second, drainFor: 30 * time.Second,
			})
			if missing != 0 {
				t.Errorf("%d of %d requests undelivered with disconnections (offlineQueued=%d offlineReplayed=%d)",
					missing, total, w.Stats.OfflineQueued.Value(), w.Stats.OfflineReplayed.Value())
			}
			if w.Stats.OfflineQueued.Value() == 0 {
				t.Error("OfflineQueued = 0; no request ever hit the offline queue")
			}
			if w.Stats.OfflineReplayed.Value() == 0 {
				t.Error("OfflineReplayed = 0; reconnection never replayed the queue")
			}
			if dup, del := w.Stats.DuplicateDeliveries.Value(), w.Stats.ResultsDelivered.Value(); dup*10 > del {
				t.Errorf("DuplicateDeliveries = %d of %d delivered; duplicate storm", dup, del)
			}
			if err := w.CheckInvariants(); err != nil {
				t.Errorf("invariants at end: %v", err)
			}
		})
	}
}

// TestChaosDisconnectMigrationCrash composes disconnection windows with
// proxy migration under the crash plan: offline replay lands while
// proxies are migrating between stations and stations are restarting
// from their journals. Delivery must stay complete and migration must
// still engage.
func TestChaosDisconnectMigrationCrash(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w, missing, total, _ := chaos(t, chaosParams{
				seed: seed, mhs: 8, cells: 5, recovery: true, migrate: true, disconnect: true,
				horizon: 60 * time.Second, drainFor: 30 * time.Second,
			})
			if missing != 0 {
				t.Errorf("%d of %d requests undelivered with disconnect+migration (migCompleted=%d offlineReplayed=%d)",
					missing, total, w.Stats.MigCompleted.Value(), w.Stats.OfflineReplayed.Value())
			}
			if w.Stats.MigCompleted.Value() == 0 {
				t.Error("MigCompleted = 0; migration never engaged under disconnect chaos")
			}
			if w.Stats.OfflineReplayed.Value() == 0 {
				t.Error("OfflineReplayed = 0; reconnection never replayed the queue")
			}
			if dup, del := w.Stats.DuplicateDeliveries.Value(), w.Stats.ResultsDelivered.Value(); dup*10 > del {
				t.Errorf("DuplicateDeliveries = %d of %d delivered; duplicate storm", dup, del)
			}
			if err := w.CheckInvariants(); err != nil {
				t.Errorf("invariants at end: %v", err)
			}
		})
	}
}

// TestChaosDisconnectDeterminism replays a disconnect+migration chaos
// seed twice: the disconnection windows, offline replay and everything
// they race must be deterministic.
func TestChaosDisconnectDeterminism(t *testing.T) {
	run := func() [5]int64 {
		w, missing, _, _ := chaos(t, chaosParams{
			seed: 4, mhs: 6, cells: 5, recovery: true, migrate: true, disconnect: true,
			horizon: 45 * time.Second, drainFor: 20 * time.Second,
		})
		return [5]int64{
			w.Stats.ResultsDelivered.Value(),
			w.Stats.OfflineQueued.Value(),
			w.Stats.OfflineReplayed.Value(),
			w.Stats.MigCompleted.Value(),
			int64(missing),
		}
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed diverged with disconnections on: %v vs %v", a, b)
	}
}

// TestChaosMigrationDeterminism replays a migration-enabled chaos seed
// twice: offers, transfers and tombstone GC must all be deterministic.
func TestChaosMigrationDeterminism(t *testing.T) {
	run := func() [5]int64 {
		w, missing, _, _ := chaos(t, chaosParams{
			seed: 3, mhs: 6, cells: 5, recovery: true, migrate: true,
			horizon: 45 * time.Second, drainFor: 20 * time.Second,
		})
		return [5]int64{
			w.Stats.ResultsDelivered.Value(),
			w.Stats.MigOffers.Value(),
			w.Stats.MigCompleted.Value(),
			w.Stats.MigMessages.Value(),
			int64(missing),
		}
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed diverged with migration on: %v vs %v", a, b)
	}
}

// TestChaosMHCrashRecovery soaks the E18 mobile-host failure model
// under the full E10 fault plan: every fourth MH crashes with amnesia
// mid-run and reboots under a fresh incarnation (the last victim stays
// dead). Every surviving-incarnation request must be delivered, the
// lease machinery must have engaged, and quiescence must show no proxy
// state owned by a dead incarnation.
func TestChaosMHCrashRecovery(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w, missing, total, _ := chaos(t, chaosParams{
				seed: seed, mhs: 8, cells: 5, recovery: true, mhcrash: true,
				horizon: 60 * time.Second, drainFor: 30 * time.Second,
			})
			if missing != 0 {
				t.Errorf("%d of %d survivor requests undelivered (staleDrops=%d reclaimed=%d heartbeats=%d)",
					missing, total, w.Stats.StaleIncarnationDrops.Value(),
					w.Stats.ProxiesReclaimed.Value(), w.Stats.LeaseHeartbeats.Value())
			}
			if got := w.Stats.MHCrashes.Value(); got != 2 {
				t.Errorf("MHCrashes = %d, want 2 (plan executed?)", got)
			}
			if got := w.Stats.MHRestarts.Value(); got != 1 {
				t.Errorf("MHRestarts = %d, want 1 (one victim is permanent)", got)
			}
			if w.Stats.LeaseHeartbeats.Value() == 0 {
				t.Error("LeaseHeartbeats = 0; the lease machinery never engaged")
			}
			if dup, del := w.Stats.DuplicateDeliveries.Value(), w.Stats.ResultsDelivered.Value(); dup*10 > del {
				t.Errorf("DuplicateDeliveries = %d of %d delivered; duplicate storm", dup, del)
			}
			if err := w.CheckQuiescent(); err != nil {
				t.Errorf("quiescence at end: %v", err)
			}
		})
	}
}

// TestChaosMHCrashMigration races host crashes against proxy migration:
// a victim's proxy may be mid-transfer when its owner dies, so the
// lease state must survive the MigState handoff and the reclaim memo
// must chase the forwarding pointers. Survivor delivery stays complete
// and migration still engages.
func TestChaosMHCrashMigration(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w, missing, total, _ := chaos(t, chaosParams{
				seed: seed, mhs: 8, cells: 5, recovery: true, mhcrash: true, migrate: true,
				horizon: 60 * time.Second, drainFor: 30 * time.Second,
			})
			if missing != 0 {
				t.Errorf("%d of %d survivor requests undelivered with migration on (migCompleted=%d reclaimed=%d)",
					missing, total, w.Stats.MigCompleted.Value(), w.Stats.ProxiesReclaimed.Value())
			}
			if w.Stats.MigCompleted.Value() == 0 {
				t.Error("MigCompleted = 0; migration never engaged under MH-crash chaos")
			}
			if dup, del := w.Stats.DuplicateDeliveries.Value(), w.Stats.ResultsDelivered.Value(); dup*10 > del {
				t.Errorf("DuplicateDeliveries = %d of %d delivered; duplicate storm", dup, del)
			}
			if err := w.CheckQuiescent(); err != nil {
				t.Errorf("quiescence at end: %v", err)
			}
		})
	}
}

// TestChaosMHCrashDisconnect composes host crashes with disconnection
// windows: victim 1 is also a disconnect victim, so it crashes out of
// coverage, reboots still out of coverage, and must discard its
// dead-incarnation offline journal at the reboot instead of replaying
// it on reconnection.
func TestChaosMHCrashDisconnect(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w, missing, total, _ := chaos(t, chaosParams{
				seed: seed, mhs: 8, cells: 5, recovery: true, mhcrash: true, disconnect: true,
				horizon: 60 * time.Second, drainFor: 30 * time.Second,
			})
			if missing != 0 {
				t.Errorf("%d of %d survivor requests undelivered with disconnections (offlineReplayed=%d droppedStale=%d)",
					missing, total, w.Stats.OfflineReplayed.Value(), w.Stats.OfflineDroppedStale.Value())
			}
			if w.Stats.OfflineQueued.Value() == 0 {
				t.Error("OfflineQueued = 0; no request ever hit the offline queue")
			}
			if w.Stats.OfflineDroppedStale.Value() == 0 {
				t.Error("OfflineDroppedStale = 0; the reboot never filtered a dead-incarnation journal")
			}
			if dup, del := w.Stats.DuplicateDeliveries.Value(), w.Stats.ResultsDelivered.Value(); dup*10 > del {
				t.Errorf("DuplicateDeliveries = %d of %d delivered; duplicate storm", dup, del)
			}
			if err := w.CheckQuiescent(); err != nil {
				t.Errorf("quiescence at end: %v", err)
			}
		})
	}
}

// TestChaosMHCrashDeterminism replays the full composition — host
// crashes, disconnections and migration under the E10 fault plan —
// twice: incarnation bumps, lease timers, reclaim memos and journal
// filtering must all be pure functions of the seed.
func TestChaosMHCrashDeterminism(t *testing.T) {
	run := func() [6]int64 {
		w, missing, _, _ := chaos(t, chaosParams{
			seed: 5, mhs: 6, cells: 5, recovery: true, mhcrash: true, migrate: true, disconnect: true,
			horizon: 45 * time.Second, drainFor: 20 * time.Second,
		})
		return [6]int64{
			w.Stats.ResultsDelivered.Value(),
			w.Stats.ProxiesReclaimed.Value(),
			w.Stats.StaleIncarnationDrops.Value(),
			w.Stats.LeaseHeartbeats.Value(),
			w.Stats.OfflineDroppedStale.Value(),
			int64(missing),
		}
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed diverged with MH crashes on: %v vs %v", a, b)
	}
}

// TestChaosWindowedTransportRecovery soaks the E15 windowed wireless
// transport under the full composition: 10% radio frame loss on top of
// the E10 wired fault plan, proxy migration and amnesiac MH crashes.
// WTP retransmission, SACK recovery and window resets race hand-offs,
// incarnation bumps and greet-refresh recovery, yet every
// surviving-incarnation request must still be delivered exactly once at
// the application.
func TestChaosWindowedTransportRecovery(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w, missing, total, _ := chaos(t, chaosParams{
				seed: seed, mhs: 8, cells: 5, recovery: true, windowed: true, migrate: true, mhcrash: true,
				horizon: 60 * time.Second, drainFor: 30 * time.Second,
			})
			if missing != 0 {
				t.Errorf("%d of %d survivor requests undelivered over windowed radio (wtpRetrans=%d wtpResets=%d migCompleted=%d)",
					missing, total, w.Stats.WTPRetransmits.Value(),
					w.Stats.WTPResets.Value(), w.Stats.MigCompleted.Value())
			}
			if w.Stats.WTPRetransmits.Value() == 0 {
				t.Error("WTPRetransmits = 0; the lossy radio never exercised the window")
			}
			if w.Stats.WTPFrames.Value() == 0 {
				t.Error("WTPFrames = 0; the windowed transport never engaged")
			}
			if w.Stats.MigCompleted.Value() == 0 {
				t.Error("MigCompleted = 0; migration never engaged under windowed chaos")
			}
			// WTP dedups at the frame level, but the application ack an MH
			// returns after a delivery still rides the raw 10%-lossy uplink:
			// each lost ack draws a greet-refresh re-forward that the MH must
			// detect and suppress. DuplicateDeliveries counts exactly those
			// suppressed copies, so unlike the lossless-radio soaks a sizable
			// count is inherent here — the gate only rejects an actual storm
			// (a retransmission loop the dedup would be masking).
			if dup, del := w.Stats.DuplicateDeliveries.Value(), w.Stats.ResultsDelivered.Value(); dup*2 > del {
				t.Errorf("DuplicateDeliveries = %d of %d delivered; duplicate storm", dup, del)
			}
			if err := w.CheckQuiescent(); err != nil {
				t.Errorf("quiescence at end: %v", err)
			}
		})
	}
}

// TestChaosWindowedTransportDeterminism replays a windowed-transport
// chaos seed twice: RTO timers, fast-retransmit triggers, cwnd
// evolution and coalescing decisions must all be pure functions of the
// seed, even while racing migrations and MH crashes.
func TestChaosWindowedTransportDeterminism(t *testing.T) {
	run := func() [6]int64 {
		w, missing, _, _ := chaos(t, chaosParams{
			seed: 6, mhs: 6, cells: 5, recovery: true, windowed: true, migrate: true, mhcrash: true,
			horizon: 45 * time.Second, drainFor: 20 * time.Second,
		})
		return [6]int64{
			w.Stats.ResultsDelivered.Value(),
			w.Stats.WTPRetransmits.Value(),
			w.Stats.WTPFrames.Value(),
			w.Stats.WTPFrameMsgs.Value(),
			w.Stats.Handoffs.Value(),
			int64(missing),
		}
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed diverged over the windowed transport: %v vs %v", a, b)
	}
}

// TestChaosAggregatedRecovery soaks the E16 aggregated location
// representation under the full composition — wired loss, a partition,
// MSS crash/restart windows, proxy migration, disconnection windows and
// amnesiac MH crashes — and demands the same headline guarantee as the
// faithful runs: every surviving-incarnation request delivered, no
// duplicate storm, clean quiescence. The set-backed tables must survive
// journal restores and hand-off races byte-for-byte.
func TestChaosAggregatedRecovery(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w, missing, total, _ := chaos(t, chaosParams{
				seed: seed, mhs: 8, cells: 5, recovery: true,
				migrate: true, disconnect: true, mhcrash: true, aggregated: true,
				horizon: 60 * time.Second, drainFor: 30 * time.Second,
			})
			if missing != 0 {
				t.Errorf("%d of %d survivor requests undelivered in aggregated mode (migCompleted=%d recoveryResends=%d)",
					missing, total, w.Stats.MigCompleted.Value(), w.Stats.RecoveryResends.Value())
			}
			if dup, del := w.Stats.DuplicateDeliveries.Value(), w.Stats.ResultsDelivered.Value(); dup*10 > del {
				t.Errorf("DuplicateDeliveries = %d of %d delivered; duplicate storm", dup, del)
			}
			if err := w.CheckQuiescent(); err != nil {
				t.Errorf("quiescence at end: %v", err)
			}
		})
	}
}

// TestChaosAggregatedEquivalence runs the identical seed and fault plan
// under both representations. With no GroupTopic the aggregation is a
// pure data-structure swap, so every externally observable counter —
// deliveries, drops, hand-offs, migrations, lease activity, what was
// missed — must match exactly.
func TestChaosAggregatedEquivalence(t *testing.T) {
	run := func(agg bool) [8]int64 {
		w, missing, _, _ := chaos(t, chaosParams{
			seed: 7, mhs: 6, cells: 5, recovery: true,
			migrate: true, disconnect: true, mhcrash: true, aggregated: agg,
			horizon: 45 * time.Second, drainFor: 20 * time.Second,
		})
		return [8]int64{
			w.Stats.RequestsIssued.Value(),
			w.Stats.ResultsDelivered.Value(),
			w.Stats.DuplicateDeliveries.Value(),
			w.Stats.Handoffs.Value(),
			w.Stats.MigCompleted.Value(),
			w.Stats.ProxiesReclaimed.Value(),
			w.Stats.WiredDrops.Value(),
			int64(missing),
		}
	}
	f, a := run(false), run(true)
	if f != a {
		t.Errorf("aggregated representation diverged from faithful: %v vs %v", f, a)
	}
}

// TestChaosDeterminism replays the same seed twice and demands identical
// counters — the fault injector, ARQ timers and recovery passes must all
// draw from the deterministic kernel.
func TestChaosDeterminism(t *testing.T) {
	run := func() [5]int64 {
		w, missing, _, _ := chaos(t, chaosParams{
			seed: 2, mhs: 6, cells: 5, recovery: true,
			horizon: 45 * time.Second, drainFor: 20 * time.Second,
		})
		return [5]int64{
			w.Stats.RequestsIssued.Value(),
			w.Stats.ResultsDelivered.Value(),
			w.Stats.WiredDrops.Value(),
			w.Stats.Handoffs.Value(),
			int64(missing),
		}
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
}

// TestCrashVoidsPendingHandoffReissue: a hand-off re-issue timer armed
// before its station crashed fires as a no-op (MSSNode.after's boot check),
// even when the restarted station has started a new hand-off for the same
// host in the meantime — only the new boot's own timer may re-issue. The
// old station is down throughout, so every hand-off toward it stays
// pending; the lease beat's twin is TestLeaseBeatSingleChainAcrossQuickRestart.
func TestCrashVoidsPendingHandoffReissue(t *testing.T) {
	cfg := recoveryConfig(1)
	cfg.WiredARQ = netsim.ARQConfig{}
	cfg.Causal = false
	cfg.NumMSS = 2
	cfg.HandoffTimeout = 300 * time.Millisecond
	cfg.GreetRefresh = 100 * time.Millisecond // the beacon re-greets the restarted station
	w := NewWorld(cfg)
	w.AddMH(1, 1)
	w.Schedule(100*time.Millisecond, func() { w.CrashMSS(1) })
	w.Schedule(200*time.Millisecond, func() { w.Migrate(1, 2) }) // re-issue due at 0.5 s
	w.Schedule(250*time.Millisecond, func() { w.CrashMSS(2) })
	w.Schedule(260*time.Millisecond, func() { w.RestartMSS(2) })
	w.RunUntil(560 * time.Millisecond)
	if got := w.MSSs[2].peek(1).arrival(); got == nil {
		t.Fatal("the restarted station has no hand-off pending for the host")
	}
	if got := w.Stats.HandoffReissues.Value(); got != 0 {
		t.Errorf("HandoffReissues = %d by 0.56 s; the pre-crash timer must not re-issue", got)
	}
	w.RunUntil(time.Second)
	if got := w.Stats.HandoffReissues.Value(); got == 0 {
		t.Error("HandoffReissues = 0 by 1 s; the new boot's own timer should have re-issued")
	}
}
