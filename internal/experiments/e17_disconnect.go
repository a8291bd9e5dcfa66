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

// E17Row is one sweep point of experiment E17: a disconnection window
// length crossed with MSS crashes and proxy migration, running the
// disconnected-operation subsystem (result cache + offline queue +
// atomic batches) over the full recovery stack.
type E17Row struct {
	DisconnectDur time.Duration
	Crashes       int
	Migration     bool
	// Issued counts plain requests plus batch members; Lost is whatever
	// was neither delivered nor cleanly aborted with its batch.
	Issued    int64
	Delivered int64
	Lost      int64
	// Replayed counts offline-journaled messages replayed on reconnect.
	Replayed int64
	// Batch outcomes: every batch must end Delivered (all members) or
	// Aborted (no members); Partial counts violations of that atomicity.
	batchOutcomes
	// Migrations counts completed proxy migrations on migration rows.
	Migrations int64
	// Cache effectiveness on the repeated-query workload.
	CacheHits   int64
	CacheMisses int64
	CacheStale  int64
	HitRatio    float64
}

// e17Config assembles the world for one sweep point: the E10 recovery
// stack (the disconnection features must compose with crashes), the
// station result cache, a batch deadline short enough that the long
// disconnection window forces aborts, and — on migration rows — the E12
// hop policy over a ring distance metric.
func e17Config(seed int64, sc Scale, migration bool) rdpcore.Config {
	cfg := baseConfig(seed)
	cfg.WirelessLatency = netsim.Constant(20 * time.Millisecond)
	cfg.WiredARQ = netsim.ARQConfig{Enabled: true, RTO: 60 * time.Millisecond, MaxBackoff: 250 * time.Millisecond}
	cfg.Checkpoint = true
	cfg.RecoveryGrace = 400 * time.Millisecond
	cfg.HandoffTimeout = 500 * time.Millisecond
	cfg.RegConfirm = true
	cfg.GreetRefresh = 2 * time.Second
	// The client retry covers radio losses around crashes and the
	// reconnect burst (replayed frames can overtake the re-greet).
	cfg.RequestTimeout = 6 * time.Second
	cfg.ResultCache.TTL = 45 * time.Second
	cfg.ResultCache.MaxEntries = 128
	cfg.ResultCache.MaxBytes = 1 << 16
	// Shorter than the long disconnection window, so batches stranded
	// open across it abort instead of blocking forever.
	cfg.BatchDeadline = sc.Horizon * 3 / 10
	if migration {
		cfg.Migration = proxymig.Policy{HopThreshold: 2, MinInterval: 250 * time.Millisecond}
		cfg.StationDistance = proxymig.RingDistance(cfg.NumMSS)
	}
	return cfg
}

// e17Plan schedules the injected faults for one sweep point: every
// third MH disconnects for dur at 35% of the horizon, and the E10 crash
// victims get crash/restart windows overlapping those disconnections.
func e17Plan(sc Scale, dur time.Duration, crashes int, mhs int) faults.Plan {
	var plan faults.Plan
	at := sc.Horizon * 35 / 100
	for i := 1; i <= mhs; i += 3 {
		plan.Disconnects = append(plan.Disconnects, faults.Disconnect{
			MH: ids.MH(i), At: at, ReconnectAt: at + dur,
		})
	}
	victims := []ids.MSS{2, 5, 7}
	for i := 0; i < crashes && i < len(victims); i++ {
		cat := sc.Horizon * time.Duration(3+3*i) / 10
		plan.Crashes = append(plan.Crashes, faults.Crash{
			MSS: victims[i], At: cat, RestartAt: cat + 3*time.Second,
		})
	}
	return plan
}

// e17Life deals every E17/E18 host its life: slow roaming (a host out of
// coverage does not change cells) under plain Poisson traffic that
// continues through every fault window. Payloads come from the small
// shared pool — one draw per request, after the arrivals are drawn — so
// the same (server, payload) computation recurs across hosts and time.
func e17Life(w *rdpcore.World, horizon time.Duration, pool [][]byte) func(*sim.RNG) (ids.MSS, []workload.Event) {
	roam := workload.Script{
		Cells: w.StationList(),
		Mobility: workload.Mobility{
			Picker:    workload.UniformCells{Cells: w.StationList()},
			Residence: netsim.Exponential{MeanDelay: 2 * time.Second, Floor: 200 * time.Millisecond},
		},
		Horizon: horizon,
	}
	traffic := workload.Script{
		Requests: workload.Requests{
			Interarrival: netsim.Exponential{MeanDelay: 800 * time.Millisecond, Floor: 20 * time.Millisecond},
			Servers:      w.ServerList(),
			PayloadBytes: 8,
		},
		Horizon: horizon,
	}
	return func(rng *sim.RNG) (ids.MSS, []workload.Event) {
		start, moves := roam.Generate(rng)
		_, reqs := traffic.Generate(rng)
		for i := range reqs {
			reqs[i].Payload = pool[rng.Intn(len(pool))]
		}
		return start, workload.Merge(moves, reqs)
	}
}

// e17Batch tracks one issued batch for post-run judgment: its host and
// the member ids BatchRequest returned.
type e17Batch struct {
	mh      ids.MH
	members []ids.RequestID
}

// batchOutcomes counts how a run's atomic batches ended.
type batchOutcomes struct {
	Batches        int64
	BatchDelivered int64
	BatchAborted   int64
	BatchPartial   int64
}

// judge counts one batch's outcome, read at its host h from its member
// ids, and returns how many members were delivered and how many lost. A
// member is abandoned only by its batch's abort (members arm no
// deadline), so a batch with an abandoned member was aborted: cleanly if
// no member was delivered. A batch neither aborted nor wholly delivered
// loses every member not delivered.
func (o *batchOutcomes) judge(h *rdpcore.MHNode, members []ids.RequestID) (delivered, lost int64) {
	aborted := false
	for _, r := range members {
		if h.Seen(r) {
			delivered++
		}
		aborted = aborted || h.Abandoned(r)
	}
	o.Batches++
	switch n := int64(len(members)); {
	case aborted && delivered == 0:
		o.BatchAborted++
	case !aborted && delivered == n:
		o.BatchDelivered++
	default:
		if delivered > 0 {
			o.BatchPartial++
		}
		lost = n - delivered // all of them if the batch never resolved either way
	}
	return delivered, lost
}

// E17Disconnected sweeps disconnection window length × MSS crashes ×
// proxy migration and checks the three disconnected-operation
// guarantees: no request is lost (delivered, or abandoned with its
// whole batch), no batch is partially delivered, and the station result
// cache answers at least half of the repeated-query lookups. Every MH
// draws its request payloads from a small shared pool, so the same
// (server, payload) computation recurs across hosts and over time — the
// workload the cache exists for. Disconnected MHs keep issuing: those
// requests journal into the offline queue and replay on reconnect. One
// batch per disconnected MH is deliberately stranded across the window
// (members sent, commit held back past the batch deadline), forcing the
// proxy-side abort path; batches issued while connected must release
// and deliver completely.
func E17Disconnected(seed int64, sc Scale) []E17Row {
	longDur := sc.Horizon * 2 / 5
	shortDur := sc.Horizon / 10
	var rows []E17Row
	for _, dur := range []time.Duration{shortDur, longDur} {
		for _, crashes := range []int{0, 1} {
			for _, migration := range []bool{false, true} {
				rows = append(rows, e17Run(seed, sc, dur, crashes, migration))
			}
		}
	}
	return rows
}

func e17Run(seed int64, sc Scale, dur time.Duration, crashes int, migration bool) E17Row {
	cfg := e17Config(seed, sc, migration)
	k := sim.NewKernel(cfg.Seed)
	inj := faults.New(k, e17Plan(sc, dur, crashes, sc.MHs))
	cfg.WiredFaults = inj
	w := rdpcore.NewWorldOn(k, cfg)
	inj.Schedule(w.CrashMSS, w.RestartMSS)
	inj.ScheduleDisconnects(w.Disconnect, w.Reconnect)

	servers := w.ServerList()
	horizon := sc.Horizon
	disconnectAt := horizon * 35 / 100

	// The shared query pool: 3 payloads per server, reused by every MH.
	pool := make([][]byte, 0, 3*len(servers))
	for i := 0; i < 3; i++ {
		pool = append(pool, []byte(fmt.Sprintf("query-%d", i)))
	}

	var batches []e17Batch
	// Requests issued inside the disconnection window are journaled and
	// replayed.
	pl := &workload.Player{Sched: k, Sys: w}
	life := e17Life(w, horizon, pool)

	for i := 1; i <= sc.MHs; i++ {
		mhID := ids.MH(i)
		rng := k.RNG().Fork()
		start, script := life(rng)
		mh := w.AddMH(mhID, start)
		pl.Schedule(mhID, script)

		// One connected-issue batch per MH: opened, filled and committed
		// in one go well before the disconnection window; must deliver
		// all members.
		srvA, srvB := servers[rng.Intn(len(servers))], servers[rng.Intn(len(servers))]
		pA, pB := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		w.Schedule(horizon/5, func() {
			b := mh.BeginBatch()
			members := []ids.RequestID{mh.BatchRequest(b, srvA, pA), mh.BatchRequest(b, srvB, pB), mh.BatchRequest(b, srvA, pB)}
			mh.CommitBatch(b)
			batches = append(batches, e17Batch{mh: mhID, members: members})
		})

		// Disconnected MHs additionally strand a batch across the
		// window: members go out just before the radio drops, the commit
		// only after reconnection — past the batch deadline on the long
		// rows, forcing the proxy abort.
		if i%3 == 1 {
			var stranded ids.BatchID
			w.Schedule(disconnectAt-100*time.Millisecond, func() {
				stranded = mh.BeginBatch()
				members := []ids.RequestID{mh.BatchRequest(stranded, srvA, pA), mh.BatchRequest(stranded, srvB, pB)}
				batches = append(batches, e17Batch{mh: mhID, members: members})
			})
			w.Schedule(disconnectAt+dur+time.Second, func() {
				mh.CommitBatch(stranded)
			})
		}
	}

	w.RunUntil(horizon + horizon/2)

	row := E17Row{
		DisconnectDur: dur,
		Crashes:       crashes,
		Migration:     migration,
		Replayed:      w.Stats.OfflineReplayed.Value(),
		Migrations:    w.Stats.MigCompleted.Value(),
		CacheHits:     w.Stats.CacheHits.Value(),
		CacheMisses:   w.Stats.CacheMisses.Value(),
		CacheStale:    w.Stats.CacheStale.Value(),
	}
	d := tally(rdpWorld{w}, pl.Ledger)
	row.Issued, row.Delivered, row.Lost = d.issued, d.delivered, d.issued-d.delivered
	for _, b := range batches {
		delivered, lost := row.judge(w.MHs[b.mh], b.members)
		row.Issued += int64(len(b.members))
		row.Delivered += delivered
		row.Lost += lost
	}
	if lookups := row.CacheHits + row.CacheMisses + row.CacheStale; lookups > 0 {
		row.HitRatio = float64(row.CacheHits) / float64(lookups)
	}
	return row
}
