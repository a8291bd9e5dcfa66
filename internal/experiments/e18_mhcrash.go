package experiments

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/proxymig"
	"repro/internal/rdpcore"
	"repro/internal/sim"
	"repro/internal/workload"
)

// E18Row is one sweep point of experiment E18: mobile-host
// crash-with-amnesia windows crossed with disconnections, MSS crashes
// and proxy migration, running incarnation-scoped delivery and the
// lease-based orphan reclamation over the full recovery stack.
//
// The accounting is incarnation-scoped: a request issued by an
// incarnation that later died is *supposed* to vanish (its issuer lost
// the memory that tracked it), so the delivery guarantee is judged only
// over requests whose issuing incarnation is still the host's current
// one at the end of the run — the "survivor" scope.
type E18Row struct {
	DisconnectDur time.Duration
	MSSCrashes    int
	Migration     bool
	// MHCrashes/MHRestarts are the executed host outage windows (one
	// victim per row stays down permanently).
	MHCrashes  int64
	MHRestarts int64
	// Issued/Delivered/Lost cover the survivor scope only; Orphaned
	// counts requests excluded from it (issued by a dead incarnation,
	// or by a host that is still down at the end).
	Issued    int64
	Delivered int64
	Lost      int64
	Orphaned  int64
	// CrossIncDeliveries counts results accepted by a different
	// incarnation than the one that issued the request — the delivery
	// anomaly the incarnation gate exists to prevent. Must be zero.
	CrossIncDeliveries int64
	// Reclaimed counts proxies retired by the lease GC; Heartbeats the
	// lease renewals; StaleDrops the protocol-level drops of
	// dead-incarnation state; DroppedOffline the journaled offline
	// entries discarded at reboot.
	Reclaimed      int64
	Heartbeats     int64
	StaleDrops     int64
	DroppedOffline int64
	// Migrations counts completed proxy migrations (migration rows only).
	Migrations int64
	// Batch outcomes over survivor-scope batches (opened by the final
	// incarnation): all-or-nothing still holds under host crashes.
	batchOutcomes
	// Leaked is the leftover dead-incarnation proxy state found by the
	// quiescence sweep (empty string means clean).
	Leaked string
}

// e18Config assembles the world for one sweep point: the E17
// disconnected-operation stack (which itself rides the E10 recovery
// stack) plus the lease machinery. The lease TTL is long against the
// heartbeat period and short against the horizon, so an orphaned proxy
// is reclaimed mid-run rather than surviving to the end.
func e18Config(seed int64, sc Scale, migration bool) rdpcore.Config {
	cfg := baseConfig(seed)
	cfg.WirelessLatency = netsim.Constant(20 * time.Millisecond)
	cfg.WiredARQ = netsim.ARQConfig{Enabled: true, RTO: 60 * time.Millisecond, MaxBackoff: 250 * time.Millisecond}
	cfg.Checkpoint = true
	cfg.RecoveryGrace = 400 * time.Millisecond
	cfg.HandoffTimeout = 500 * time.Millisecond
	cfg.RegConfirm = true
	cfg.GreetRefresh = 2 * time.Second
	cfg.RequestTimeout = 6 * time.Second
	cfg.ResultCache.TTL = 45 * time.Second
	cfg.ResultCache.MaxEntries = 128
	cfg.ResultCache.MaxBytes = 1 << 16
	cfg.BatchDeadline = sc.Horizon * 3 / 10
	cfg.LeaseTTL = 6 * time.Second
	if migration {
		cfg.Migration = proxymig.Policy{HopThreshold: 2, MinInterval: 250 * time.Millisecond}
		cfg.StationDistance = proxymig.RingDistance(cfg.NumMSS)
	}
	return cfg
}

// e18Plan schedules the faults for one sweep point: every third MH
// disconnects for dur at 35% of the horizon (as in E17), every fourth
// MH crashes with amnesia at 55% and reboots two seconds later — except
// the last crash victim, which stays down for the rest of the run (the
// permanent-casualty case the lease GC must clean up after) — and the
// E10 station crash victims overlap the middle of the run. MH 1 is both
// a disconnect and a crash victim, so on the long rows it reboots while
// still out of coverage and replays its offline journal through the
// incarnation filter.
func e18Plan(sc Scale, dur time.Duration, mssCrashes, mhs int) faults.Plan {
	var plan faults.Plan
	at := sc.Horizon * 35 / 100
	for i := 1; i <= mhs; i += 3 {
		plan.Disconnects = append(plan.Disconnects, faults.Disconnect{
			MH: ids.MH(i), At: at, ReconnectAt: at + dur,
		})
	}
	crashAt := sc.Horizon * 55 / 100
	for i := 1; i <= mhs; i += 4 {
		plan.MHCrashes = append(plan.MHCrashes, faults.MHCrash{
			MH: ids.MH(i), At: crashAt, RestartAt: crashAt + 2*time.Second,
		})
	}
	// Permanent casualty: never restarts; the lease GC must reclaim
	// whatever its death orphaned.
	plan.MHCrashes[len(plan.MHCrashes)-1].RestartAt = 0
	victims := []ids.MSS{2, 5, 7}
	for i := 0; i < mssCrashes && i < len(victims); i++ {
		cat := sc.Horizon * time.Duration(3+3*i) / 10
		plan.Crashes = append(plan.Crashes, faults.Crash{
			MSS: victims[i], At: cat, RestartAt: cat + 3*time.Second,
		})
	}
	return plan
}

// E18MHCrash sweeps disconnection window length × MSS crashes × proxy
// migration with mobile-host crash/amnesia windows injected on every
// row, and checks the three E18 guarantees: no result crosses an
// incarnation boundary (CrossIncDeliveries == 0), every survivor-scope
// request is delivered (Lost == 0), and no proxy state owned by a dead
// incarnation survives to quiescence (Leaked == ""). Crash victims keep
// issuing after their reboot — those post-restart requests are in the
// survivor scope and must deliver through whatever is left of their
// pre-crash proxy state.
func E18MHCrash(seed int64, sc Scale) []E18Row {
	longDur := sc.Horizon * 2 / 5
	shortDur := sc.Horizon / 10
	var rows []E18Row
	for _, dur := range []time.Duration{shortDur, longDur} {
		for _, mssCrashes := range []int{0, 1} {
			for _, migration := range []bool{false, true} {
				rows = append(rows, e18Run(seed, sc, dur, mssCrashes, migration))
			}
		}
	}
	return rows
}

// e18Recorder is the E18 world as the player sees it: every request a
// script issues is reported with the world state it was issued in.
type e18Recorder struct {
	*rdpcore.World
	record func(ids.MH, ids.RequestID)
}

func (r e18Recorder) IssueRequest(id ids.MH, srv ids.Server, payload []byte) ids.RequestID {
	req := r.World.IssueRequest(id, srv, payload)
	r.record(id, req)
	return req
}

func e18Run(seed int64, sc Scale, dur time.Duration, mssCrashes int, migration bool) E18Row {
	cfg := e18Config(seed, sc, migration)
	k := sim.NewKernel(cfg.Seed)
	inj := faults.New(k, e18Plan(sc, dur, mssCrashes, sc.MHs))
	cfg.WiredFaults = inj
	w := rdpcore.NewWorldOn(k, cfg)
	inj.Schedule(w.CrashMSS, w.RestartMSS)
	inj.ScheduleDisconnects(w.Disconnect, w.Reconnect)
	inj.ScheduleMHCrashes(w.CrashMH, w.RestartMH)

	servers := w.ServerList()
	horizon := sc.Horizon
	crashAt := horizon * 55 / 100

	pool := make([][]byte, 0, 3*len(servers))
	for i := 0; i < 3; i++ {
		pool = append(pool, []byte(fmt.Sprintf("query-%d", i)))
	}

	// Each issued request is recorded with the incarnation that issued
	// it; each first (non-duplicate) delivery with the incarnation that
	// accepted it. A mismatch between the two is the cross-incarnation
	// anomaly.
	type pendingReq struct {
		mh  ids.MH
		req ids.RequestID
		inc ids.Incarnation
	}
	type pendingBatch struct {
		mh      ids.MH
		members []ids.RequestID
		inc     ids.Incarnation
	}
	var plain []pendingReq
	var batches []pendingBatch
	issueInc := make(map[pendingReq]bool)
	var crossInc int64

	// record notes an issued request under the incarnation that issued it;
	// a crashed host's request never happened.
	record := func(mhID ids.MH, req ids.RequestID) {
		if req.Seq == 0 {
			return
		}
		pr := pendingReq{mh: mhID, req: req, inc: w.IncarnationOf(mhID)}
		plain = append(plain, pr)
		issueInc[pr] = true
	}
	// Roaming and plain traffic through every fault window: disconnected
	// issues journal offline, crash-window issues are swallowed (the host
	// is dead), post-restart issues re-enter under the new incarnation.
	pl := &workload.Player{Sched: k, Sys: e18Recorder{w, record}}
	life := e17Life(w, horizon, pool)

	for i := 1; i <= sc.MHs; i++ {
		mhID := ids.MH(i)
		rng := k.RNG().Fork()
		start, script := life(rng)
		mh := w.AddMH(mhID, start)

		mh.OnResult(func(req ids.RequestID, payload []byte, duplicate bool) {
			if duplicate {
				return
			}
			if !issueInc[pendingReq{mh: mhID, req: req, inc: w.IncarnationOf(mhID)}] {
				crossInc++
			}
		})
		pl.Schedule(mhID, script)

		// A burst just before the crash instant guarantees every victim
		// dies with in-flight state: the results land at a proxy whose
		// owner has lost all memory of them, so the orphaned state must
		// be scrubbed on re-registration (rebooted victims) or reclaimed
		// by the lease GC (the permanent casualty).
		if i%4 == 1 {
			w.Schedule(crashAt-50*time.Millisecond, func() {
				for j := 0; j < 3; j++ {
					// Unique payloads bypass the result cache: the burst
					// must still be at the server when the host dies.
					payload := []byte(fmt.Sprintf("orphan-%d-%d", i, j))
					record(mhID, mh.IssueRequest(servers[j%len(servers)], payload))
				}
			})
		}

		// Two batches per MH, opened/filled/committed in a single
		// instant (so a batch never straddles a crash boundary on the
		// client): one before the fault windows, one after the crash
		// victims have rebooted.
		srvA, srvB := servers[rng.Intn(len(servers))], servers[rng.Intn(len(servers))]
		pA, pB := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		for _, at := range []time.Duration{horizon / 5, horizon * 7 / 10} {
			at := at
			w.Schedule(at, func() {
				b := mh.BeginBatch()
				if b.Seq == 0 {
					return // host crashed at this instant
				}
				inc := w.IncarnationOf(mhID)
				members := []ids.RequestID{mh.BatchRequest(b, srvA, pA), mh.BatchRequest(b, srvB, pB)}
				mh.CommitBatch(b)
				batches = append(batches, pendingBatch{mh: mhID, members: members, inc: inc})
				for _, r := range members {
					issueInc[pendingReq{mh: mhID, req: r, inc: inc}] = true
				}
			})
		}
	}

	w.RunUntil(horizon + horizon/2)

	row := E18Row{
		DisconnectDur:      dur,
		MSSCrashes:         mssCrashes,
		Migration:          migration,
		MHCrashes:          w.Stats.MHCrashes.Value(),
		MHRestarts:         w.Stats.MHRestarts.Value(),
		CrossIncDeliveries: crossInc,
		Reclaimed:          w.Stats.ProxiesReclaimed.Value(),
		Heartbeats:         w.Stats.LeaseHeartbeats.Value(),
		StaleDrops:         w.Stats.StaleIncarnationDrops.Value(),
		DroppedOffline:     w.Stats.OfflineDroppedStale.Value(),
		Migrations:         w.Stats.MigCompleted.Value(),
	}
	for _, pr := range plain {
		row.Issued++
		switch {
		case w.IsCrashed(pr.mh) || pr.inc != w.IncarnationOf(pr.mh):
			// Issued by a dead incarnation (or a host still down):
			// outside the delivery guarantee by design.
			row.Orphaned++
		case w.MHs[pr.mh].Seen(pr.req):
			row.Delivered++
		default:
			row.Lost++
		}
	}
	for _, b := range batches {
		if w.IsCrashed(b.mh) || b.inc != w.IncarnationOf(b.mh) {
			continue // the batch died with its incarnation
		}
		delivered, lost := row.judge(w.MHs[b.mh], b.members)
		row.Issued += int64(len(b.members))
		row.Delivered += delivered
		row.Lost += lost
	}
	if err := w.CheckQuiescent(); err != nil {
		row.Leaked = err.Error()
	}
	return row
}
