// Package experiments implements the paper's evaluation: one sweep
// function per experiment (E1–E18, DESIGN §2) plus the Figure 3 /
// Figure 4 / migration scenario replays. Each sweep builds the required
// worlds, drives the paper's workload, and returns the rows of the table
// the experiment regenerates. Registry (registry.go) describes every
// experiment once — claim line, tables, headlines — and is what
// cmd/rdpbench prints, the root package's BenchmarkExperiments times and
// the pin tests hold to testdata/. EXPERIMENTS.md records the measured
// outcomes against the paper's claims.
package experiments

import (
	"time"

	"repro/internal/ids"
	"repro/internal/itcp"
	"repro/internal/metrics"
	"repro/internal/mobileip"
	"repro/internal/netsim"
	"repro/internal/rdpcore"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Scale tunes how much work each experiment does; 1 is the standard
// size used by rdpbench, smaller fractions keep unit tests fast.
type Scale struct {
	// MHs is the number of mobile hosts per run.
	MHs int
	// Horizon is the issuing period; a drain of half the horizon is
	// appended.
	Horizon time.Duration
}

// DefaultScale is the rdpbench size.
func DefaultScale() Scale {
	return Scale{MHs: 20, Horizon: 2 * time.Minute}
}

// SmallScale keeps test runs under a second.
func SmallScale() Scale {
	return Scale{MHs: 6, Horizon: 20 * time.Second}
}

// baseConfig is the network every experiment runs on unless it sweeps
// one of these parameters: 8 cells, 2 servers, 5ms wired, 20ms wireless,
// 150ms mean server processing.
func baseConfig(seed int64) rdpcore.Config {
	cfg := rdpcore.DefaultConfig()
	cfg.Seed = seed
	cfg.NumMSS = 8
	cfg.NumServers = 2
	cfg.WiredLatency = netsim.Uniform{Lo: 2 * time.Millisecond, Hi: 8 * time.Millisecond}
	cfg.WirelessLatency = netsim.Uniform{Lo: 10 * time.Millisecond, Hi: 30 * time.Millisecond}
	cfg.ServerProc = netsim.Exponential{MeanDelay: 150 * time.Millisecond, Floor: 10 * time.Millisecond}
	return cfg
}

// ---------------------------------------------------------------------
// E1 — reliability: delivery ratio under swept mobility and inactivity.

// E1Row is one sweep point of experiment E1.
type E1Row struct {
	MeanResidence time.Duration
	InactiveProb  float64
	Issued        int64
	Delivered     int64
	Ratio         float64
	Handoffs      int64
	Retrans       int64
}

// E1Reliability sweeps the mean cell-residence time (with and without
// inactivity) and measures the delivery ratio. Paper claim (§5, abstract):
// "eventually every result will be delivered ... despite any number of
// migrations and periods of inactivity" — the Ratio column must be 1.0
// on every row.
func E1Reliability(seed int64, sc Scale) []E1Row {
	residences := []time.Duration{
		200 * time.Millisecond, 500 * time.Millisecond,
		time.Second, 3 * time.Second, 10 * time.Second,
	}
	var rows []E1Row
	for _, res := range residences {
		for _, inact := range []float64{0, 0.25} {
			cfg := baseConfig(seed)
			w := rdpcore.NewWorld(cfg)
			d := drive(rdpWorld{w}, sc, netsim.Exponential{MeanDelay: res, Floor: res / 10}, inact)
			rows = append(rows, E1Row{
				MeanResidence: res,
				InactiveProb:  inact,
				Issued:        d.issued,
				Delivered:     d.delivered,
				Ratio:         d.ratio(),
				Handoffs:      w.Stats.Handoffs.Value(),
				Retrans:       w.Stats.Retransmissions.Value(),
			})
		}
	}
	return rows
}

// ---------------------------------------------------------------------
// E2 — exactly-once and its two mechanisms.

// E2Row is one configuration of experiment E2.
type E2Row struct {
	Name        string
	Causal      bool
	AckPriority bool
	Issued      int64
	Delivered   int64
	Duplicates  int64
	Violations  int64
	IgnoredAcks int64
	// Stranded counts the hosts the row ends with stranded
	// (rdpcore.World.Stranded): registered where they do not listen, or
	// waiting for a request no proxy holds.
	Stranded int64
}

// E2ExactlyOnce runs an adversarial migrate-on-delivery workload in two
// regimes. Regime A (constant wireless latency, so the Ack always
// reaches the old station before the hand-off dereg — the paper's §5
// premise) isolates the causal-order mechanism: the full protocol must
// be exactly-once, the no-causal ablation must show anomalies. Regime B
// (variable wireless latency + per-message processing delay, so Acks and
// deregs race into station queues) isolates the §3.1 ack-priority rule:
// disabling it must increase ignored Acks and the duplicates they cause.
func E2ExactlyOnce(seed int64, sc Scale) []E2Row {
	type variant struct {
		name        string
		causal      bool
		ackPriority bool
		varWireless bool
	}
	variants := []variant{
		{"A: full protocol", true, true, false},
		{"A: no causal order", false, true, false},
		{"B: ack priority on", true, true, true},
		{"B: ack priority off", true, false, true},
	}
	var rows []E2Row
	for _, v := range variants {
		cfg := baseConfig(seed)
		cfg.Causal = v.causal
		cfg.AckPriority = v.ackPriority
		// Per-message processing delay gives the ack-priority rule a
		// queue to act on and widens the race windows.
		cfg.ProcDelay = 3 * time.Millisecond
		cfg.WiredLatency = netsim.Uniform{Lo: time.Millisecond, Hi: 40 * time.Millisecond}
		if v.varWireless {
			cfg.WirelessLatency = netsim.Uniform{Lo: 2 * time.Millisecond, Hi: 30 * time.Millisecond}
		} else {
			cfg.WirelessLatency = netsim.Constant(20 * time.Millisecond)
		}
		w := rdpcore.NewWorld(cfg)

		// Adversarial schedule: every MH migrates immediately after each
		// delivery, racing the Ack against the hand-off.
		cells := w.StationList()
		pl := &workload.Player{Sched: w.Kernel, Sys: w}
		traffic := workload.Script{
			Cells: cells,
			Requests: workload.Requests{
				Interarrival: netsim.Exponential{MeanDelay: 400 * time.Millisecond, Floor: 10 * time.Millisecond},
				Servers:      w.ServerList(),
				PayloadBytes: 16,
			},
			Horizon: sc.Horizon,
		}
		for i := 1; i <= sc.MHs; i++ {
			mhID := ids.MH(i)
			rng := w.Kernel.RNG().Fork()
			start, script := traffic.Generate(rng)
			w.AddMH(mhID, start).OnResult(func(ids.RequestID, []byte, bool) {
				cell := cells[rng.Intn(len(cells))]
				w.Schedule(200*time.Microsecond, func() { w.Migrate(mhID, cell) })
			})
			pl.Schedule(mhID, script)
		}
		w.RunUntil(sc.Horizon + sc.Horizon/2)
		rows = append(rows, E2Row{
			Name:        v.name,
			Causal:      v.causal,
			AckPriority: v.ackPriority,
			Issued:      int64(len(pl.Ledger)),
			Delivered:   w.Stats.ResultsDelivered.Value(),
			Duplicates:  w.Stats.DuplicateDeliveries.Value(),
			Violations:  w.Stats.Violations.Value(),
			IgnoredAcks: w.Stats.IgnoredAcks.Value(),
			Stranded:    int64(len(w.Stranded())),
		})
	}
	return rows
}

// ---------------------------------------------------------------------
// E3 — the §5 retransmission threshold.

// E3Row is one sweep point of experiment E3.
type E3Row struct {
	MeanResidence    time.Duration
	ThresholdRatio   float64 // residence / (t_wired + t_wireless)
	Results          int64
	Retrans          int64
	RetransPerResult float64
}

// E3RetransmissionThreshold sweeps the mean cell-residence time across
// the t_wired + t_wireless boundary. Paper claim (§5): "retransmissions
// ... occur only if the mean time period a MH spends in a cell is less
// than t_wired + t_wireless" — the per-result retransmission rate must
// fall toward zero as the ratio passes 1 and grow sharply below it.
func E3RetransmissionThreshold(seed int64, sc Scale) []E3Row {
	cfg := baseConfig(seed)
	// Deterministic latencies make the threshold crisp: t_wired = 5ms,
	// t_wireless = 20ms, threshold at 25ms.
	cfg.WiredLatency = netsim.Constant(5 * time.Millisecond)
	cfg.WirelessLatency = netsim.Constant(20 * time.Millisecond)
	threshold := 25 * time.Millisecond

	ratios := []float64{0.4, 0.8, 1.0, 1.5, 2, 4, 10, 40, 150, 400}
	var rows []E3Row
	for _, ratio := range ratios {
		res := time.Duration(float64(threshold) * ratio)
		w := rdpcore.NewWorld(cfg)
		// Uniform residence keeps the sweep point near its nominal mean
		// (an exponential would smear mass below the threshold at every
		// ratio) while enough jitter avoids phase-locking between the
		// migration cycle and the retransmission cycle.
		delivered := drive(rdpWorld{w}, sc, netsim.Uniform{Lo: res / 2, Hi: res * 3 / 2}, 0).delivered
		retrans := w.Stats.Retransmissions.Value()
		per := 0.0
		if delivered > 0 {
			per = float64(retrans) / float64(delivered)
		}
		rows = append(rows, E3Row{
			MeanResidence:    res,
			ThresholdRatio:   ratio,
			Results:          delivered,
			Retrans:          retrans,
			RetransPerResult: per,
		})
	}
	return rows
}

// ---------------------------------------------------------------------
// E4 — the §5 overhead formula.

// E4Row is one sweep point of experiment E4.
type E4Row struct {
	MeanResidence    time.Duration
	UpdateCurrLocs   int64
	PredictedUpdates int64 // hand-offs + reactivations (proxy always alive)
	UpdateCoverage   float64
	AckForwards      int64
	PredictedAcks    int64 // deliveries (incl. duplicates) minus ignored acks
	Match            bool
}

// E4Overhead measures the two §5 overhead terms against independent
// predictions. The paper: "(1) one update_currl whenever the mobile
// host migrates or becomes active again; and (2) one extra Ack message
// sent from respMss to the proxy whenever MH acknowledges the receipt
// of result".
//
// Updates are owed only while the MH has a proxy, so the workload keeps
// a request pipeline deep enough that every MH's proxy lives through the
// whole run: predicted updates = hand-offs + reactivations, both counted
// by independent event counters. Predicted ack relays = result
// deliveries (the MH acks every one, duplicates included) minus the acks
// the old station ignored during hand-offs.
func E4Overhead(seed int64, sc Scale) []E4Row {
	var rows []E4Row
	for _, res := range []time.Duration{500 * time.Millisecond, 2 * time.Second} {
		cfg := baseConfig(seed)
		// Deep pipeline: requests arrive faster than the server answers.
		cfg.ServerProc = netsim.Exponential{MeanDelay: 1200 * time.Millisecond, Floor: 200 * time.Millisecond}
		w := rdpcore.NewWorld(cfg)
		cells := w.StationList()
		roam := workload.Script{
			Cells: cells,
			Mobility: workload.Mobility{
				Picker:       workload.UniformCells{Cells: cells},
				Residence:    netsim.Exponential{MeanDelay: res, Floor: res / 10},
				InactiveProb: 0.15,
				InactiveDur:  netsim.Exponential{MeanDelay: res, Floor: res / 5},
			},
			Requests: workload.Requests{
				Interarrival: netsim.Exponential{MeanDelay: 300 * time.Millisecond, Floor: 20 * time.Millisecond},
				Servers:      w.ServerList(),
				PayloadBytes: 16,
			},
			Horizon: sc.Horizon,
		}
		// Priming burst pins the proxy alive from t=0.
		prime := workload.Event{Kind: workload.EvRequest, Server: 1, Payload: []byte("prime")}
		play(rdpWorld{w}, sc.MHs, func(rng *sim.RNG) (ids.MSS, []workload.Event) {
			start, script := roam.Generate(rng)
			return start, append([]workload.Event{prime, prime, prime, prime}, script...)
		})
		// Mobility and issuing stop at the horizon; a short quiescence
		// drain lets in-flight results and ack relays complete so the
		// counters are closed totals. (The pipeline stays deep through
		// the measured period.)
		w.RunUntil(sc.Horizon + 10*time.Second)
		updates := w.Stats.UpdateCurrLocs.Value()
		predictedUpdates := w.Stats.Handoffs.Value() + w.Stats.Reactivations.Value()
		acks := w.Stats.AckForwards.Value()
		predictedAcks := w.Stats.ResultsDelivered.Value() + w.Stats.DuplicateDeliveries.Value() - w.Stats.IgnoredAcks.Value()
		coverage := 0.0
		if predictedUpdates > 0 {
			coverage = float64(updates) / float64(predictedUpdates)
		}
		rows = append(rows, E4Row{
			MeanResidence:    res,
			UpdateCurrLocs:   updates,
			PredictedUpdates: predictedUpdates,
			UpdateCoverage:   coverage,
			AckForwards:      acks,
			PredictedAcks:    predictedAcks,
			// The ack term is exact. The update term may undershoot the
			// bound slightly: a migration in the instants before the MH's
			// very first request reaches its station owes no update (no
			// proxy exists yet).
			Match: acks == predictedAcks && coverage >= 0.95 && coverage <= 1.0,
		})
	}
	return rows
}

// ---------------------------------------------------------------------
// E5 — load balancing: proxy placement vs fixed home agents.

// E5Row summarizes one protocol's forwarding-load distribution.
type E5Row struct {
	Protocol    string
	Jain        float64
	MaxOverMean float64
	Loads       []float64
}

// E5LoadBalance runs the same roaming workload under RDP and under
// Mobile IP with all home agents on one station (the worst — and
// common — case of operator-assigned home networks), and compares how
// forwarding load spreads over stations. Paper claim (§1, §4): "the
// location of the proxy ... is not static (as in Mobile IP), by which
// it facilitates dynamic global load balancing within the set of MSSs".
func E5LoadBalance(seed int64, sc Scale) []E5Row {
	// RDP: result-forward work per hosting station.
	cfg := baseConfig(seed)
	w := rdpcore.NewWorld(cfg)
	residence := netsim.Exponential{MeanDelay: time.Second, Floor: 100 * time.Millisecond}
	drive(rdpWorld{w}, sc, residence, 0)
	rdpLoads := w.Stats.ForwardLoads(w.StationList())

	// Mobile IP: tunnel work per station; all homes at mss1.
	mcfg := mipConfig(cfg)
	mcfg.RequestTimeout = 2 * time.Second
	mw := mobileip.NewWorld(mcfg)
	drive(mipWorld{mw, func(ids.MH, ids.MSS) ids.MSS { return 1 }}, sc, residence, 0)
	mipLoads := tunnelLoads(mw)

	// Mobile IP with homes spread round-robin (best case for MIP): load
	// is static per MH regardless of where it roams.
	mcfg.Seed = seed + 1
	mw2 := mobileip.NewWorld(mcfg)
	drive(mipWorld{mw2, homeSpread(mcfg.NumMSS)}, sc, residence, 0)
	mip2Loads := tunnelLoads(mw2)

	return []E5Row{
		{Protocol: "RDP (proxies follow users)", Jain: metrics.JainIndex(rdpLoads), MaxOverMean: metrics.MaxOverMean(rdpLoads), Loads: rdpLoads},
		{Protocol: "Mobile IP (shared home)", Jain: metrics.JainIndex(mipLoads), MaxOverMean: metrics.MaxOverMean(mipLoads), Loads: mipLoads},
		{Protocol: "Mobile IP (spread homes)", Jain: metrics.JainIndex(mip2Loads), MaxOverMean: metrics.MaxOverMean(mip2Loads), Loads: mip2Loads},
	}
}

// ---------------------------------------------------------------------
// E6 — hand-off state transfer.

// E6Row compares hand-off cost at one pending-request level. Both
// protocols deliver everything (the Delivered columns document equal
// functionality); the contrast is the per-hand-off state volume.
type E6Row struct {
	PendingRequests int
	RDPBytesPerHO   float64
	ITCPBytesPerHO  float64
	RDPHandoffP95   time.Duration
	ITCPHandoffP95  time.Duration
	RDPDelivered    int64
	ITCPDelivered   int64
}

// E6HandoffState measures hand-off state volume as the number of
// in-flight requests grows, for RDP (pref only) and the I-TCP-style
// image baseline. Paper claim (§5): "except for the proxy reference,
// neither result forwarding pointers nor other residue ... need to be
// kept at the MSS" — RDP's per-hand-off bytes must stay flat while the
// baseline's grow linearly.
// The scenario for each sweep point: the MH issues `pending` requests
// with 128-byte results, goes inactive just before the results arrive
// (so undelivered results accumulate on the fixed side — at the RDP
// proxy, in the I-TCP session image), is carried to a new cell asleep,
// and wakes there, triggering one hand-off that must move whatever
// per-MH state the protocol keeps at the station.
func E6HandoffState(seed int64, sc Scale) []E6Row {
	var rows []E6Row
	for _, pending := range []int{1, 5, 20, 50} {
		row := E6Row{PendingRequests: pending}

		cfg := baseConfig(seed)
		cfg.WiredLatency = netsim.Constant(5 * time.Millisecond)
		cfg.WirelessLatency = netsim.Constant(10 * time.Millisecond)
		cfg.ServerProc = netsim.Constant(300 * time.Millisecond)
		w := rdpcore.NewWorld(cfg)
		w.AddMH(1, 1)
		(&workload.Player{Sched: w.Kernel, Sys: w}).Schedule(1, e6Script(pending))
		w.RunUntil(10 * time.Second)
		if h := w.Stats.Handoffs.Value(); h > 0 {
			row.RDPBytesPerHO = float64(w.Stats.HandoffStateBytes.Value()) / float64(h)
		}
		row.RDPHandoffP95 = w.Stats.HandoffLatency.Quantile(0.95)
		row.RDPDelivered = w.Stats.ResultsDelivered.Value()

		icfg := itcp.DefaultConfig()
		icfg.Seed = seed
		icfg.NumMSS = cfg.NumMSS
		icfg.WiredLatency = cfg.WiredLatency
		icfg.WirelessLatency = cfg.WirelessLatency
		icfg.ServerProc = cfg.ServerProc
		iw := itcp.NewWorld(icfg)
		iw.AddMH(1, 1)
		(&workload.Player{Sched: iw.Kernel, Sys: iw}).Schedule(1, e6Script(pending))
		iw.RunUntil(10 * time.Second)
		if h := iw.Stats.Handoffs.Value(); h > 0 {
			row.ITCPBytesPerHO = float64(iw.Stats.HandoffStateBytes.Value()) / float64(h)
		}
		row.ITCPHandoffP95 = iw.Stats.HandoffLatency.Quantile(0.95)
		row.ITCPDelivered = iw.Stats.ResultsDelivered.Value()

		rows = append(rows, row)
	}
	return rows
}

// e6Script is the scenario both protocols replay: a burst of requests,
// sleep before the results arrive, a carry to cell 2, wake there.
func e6Script(pending int) []workload.Event {
	var script []workload.Event
	for i := 0; i < pending; i++ {
		script = append(script, workload.Event{Kind: workload.EvRequest, Server: 1, Payload: make([]byte, 128)})
	}
	return append(script,
		workload.Event{At: 250 * time.Millisecond, Kind: workload.EvDeactivate},
		workload.Event{At: 600 * time.Millisecond, Kind: workload.EvMigrate, Cell: 2}, // carried asleep
		workload.Event{At: 800 * time.Millisecond, Kind: workload.EvActivate, Cell: 2})
}

// ---------------------------------------------------------------------
// E7 — delivery vs Mobile IP.

// E7Row is one sweep point of experiment E7.
type E7Row struct {
	Protocol      string
	MeanResidence time.Duration
	Issued        int64
	Delivered     int64
	Ratio         float64
	MeanLatency   time.Duration
	P50Latency    time.Duration
	P95Latency    time.Duration
	P99Latency    time.Duration
}

// E7VsMobileIP sweeps mobility and measures delivery ratio and result
// latency for RDP, plain Mobile IP, and Mobile IP with an upper-layer
// 2s retransmission shim. Paper claims (§4): "Mobile IP does not
// guarantee reliable data delivery" (datagrams lost during care-of
// updates and inactivity), while conventional upper-layer recovery
// "presents bad performance when used in a wireless environment".
func E7VsMobileIP(seed int64, sc Scale) []E7Row {
	var rows []E7Row
	for _, res := range []time.Duration{500 * time.Millisecond, 2 * time.Second, 8 * time.Second} {
		residence := netsim.Exponential{MeanDelay: res, Floor: res / 10}
		// RDP.
		cfg := baseConfig(seed)
		w := rdpcore.NewWorld(cfg)
		rows = append(rows, e7row("RDP", res, drive(rdpWorld{w}, sc, residence, 0.15), &w.Stats.ResultLatency))

		// Plain Mobile IP (no recovery). Its hosts roam the same way but
		// never sleep: the pinned rows have always run without inactivity.
		mcfg := mipConfig(cfg)
		mw := mobileip.NewWorld(mcfg)
		rows = append(rows, e7row("MobileIP", res, drive(mipWorld{mw, homeSpread(mcfg.NumMSS)}, sc, residence, 0), &mw.Stats.ResultLatency))

		// Mobile IP + upper-layer timeout recovery.
		mcfg.RequestTimeout = 2 * time.Second
		mw2 := mobileip.NewWorld(mcfg)
		rows = append(rows, e7row("MobileIP+retry", res, drive(mipWorld{mw2, homeSpread(mcfg.NumMSS)}, sc, residence, 0), &mw2.Stats.ResultLatency))
	}
	return rows
}

func e7row(proto string, res time.Duration, d delivery, lat *metrics.Histogram) E7Row {
	return E7Row{
		Protocol:      proto,
		MeanResidence: res,
		Issued:        d.issued,
		Delivered:     d.delivered,
		Ratio:         d.ratio(),
		MeanLatency:   lat.Mean(),
		P50Latency:    lat.Quantile(0.5),
		P95Latency:    lat.Quantile(0.95),
		P99Latency:    lat.Quantile(0.99),
	}
}
