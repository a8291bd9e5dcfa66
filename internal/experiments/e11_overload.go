package experiments

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/rdpcore"
	"repro/internal/workload"
)

// E11 station-capacity model. Every mobile host is parked in cell 1, so
// station 1 is the bottleneck under study. With a co-located proxy a
// request costs the station exactly three inbox slots — the Request,
// the ServerResult, and the AckMH (proxy-to-self forwards bypass the
// inbox) — so one station finishes at most 1/(3·ProcDelay) requests per
// second. The sweep offers fractions and multiples of that capacity.
const (
	e11ProcDelay   = 5 * time.Millisecond
	e11SlotsPerReq = 3
)

// e11Capacity is the hot station's service capacity in requests/second.
func e11Capacity() float64 {
	return 1.0 / (e11SlotsPerReq * e11ProcDelay.Seconds())
}

// E11Row is one sweep point of experiment E11: an offered-load multiple
// of station capacity, with the overload-protection stack on or off.
type E11Row struct {
	OfferedX  float64
	Protected bool
	Issued    int64
	Delivered int64
	// Refusals counts busy-NACK events (several may hit one request as
	// it backs off and re-offers); ClientRetries counts client re-sends
	// (busy backoff re-offers when protected, timeout retries when not).
	Refusals      int64
	ClientRetries int64
	// Abandoned counts never-admitted requests whose deadline expired —
	// the protected stack's explicit, accounted casualty.
	Abandoned  int64
	Duplicates int64
	// GoodputPct is results delivered during the issuing horizon as a
	// percentage of what the hot station could finish in that time.
	GoodputPct float64
	P99Latency time.Duration
	InboxPeak  int64
	// NetworkShed counts frames shed by the bounded link queues (the
	// protected stack arms them; admission keeps them from engaging
	// here, so shortfall stays attributable to explicit refusals).
	NetworkShed int64
	// LostAdmitted counts requests the station admitted but never
	// delivered. The protocol's guarantee makes this zero by
	// construction; the experiment verifies it under overload.
	LostAdmitted int64
}

// e11Config assembles one sweep point's world. Both variants run the
// same deterministic network (constant latencies, fast servers) with
// per-message station processing, so the hot station's inbox is the only
// contended resource. The protected variant layers the full E11 stack:
// three-class priority processing, admission control with busy-NACKs,
// client backoff with per-request deadlines, and bounded link queues
// (with wired ARQ beneath them, so a shed is backpressure, not loss).
// The unprotected variant is the classic configuration: ack priority,
// unbounded queues, and a 1-second client timeout — the retry amplifier
// that turns saturation into congestion collapse.
func e11Config(seed int64, protected bool) rdpcore.Config {
	cfg := baseConfig(seed)
	cfg.WiredLatency = netsim.Constant(2 * time.Millisecond)
	cfg.WirelessLatency = netsim.Constant(10 * time.Millisecond)
	cfg.ServerProc = netsim.Constant(5 * time.Millisecond)
	cfg.ProcDelay = e11ProcDelay
	if protected {
		cfg.PriorityClasses = true
		cfg.AdmissionHighWater = 32
		cfg.BusyRetryBase = 150 * time.Millisecond
		cfg.BusyRetryMax = 2 * time.Second
		cfg.RequestDeadline = 6 * time.Second
		cfg.WiredQueueLimit = 1024
		cfg.WirelessQueueLimit = 1024
		cfg.WiredARQ = netsim.ARQConfig{Enabled: true, RTO: 60 * time.Millisecond, MaxBackoff: 250 * time.Millisecond}
	} else {
		cfg.RequestTimeout = time.Second
	}
	return cfg
}

// E11Overload measures graceful degradation under overload. It sweeps
// the offered load across 0.5×, 1× and 2× of the hot station's service
// capacity, running each point with the overload-protection stack on
// and off over the same seeded workload. Expected shape: below
// saturation the two variants match (goodput ≈ offered). Past
// saturation the unprotected station collapses — timeout retries
// multiply the offered load, the inbox grows without bound, and useful
// throughput falls well below capacity — while the protected station
// plateaus at its capacity, refuses the excess explicitly (every
// shortfall is a busy refusal or a deadline abandonment, never a lost
// admitted request), and keeps its inbox near the high-watermark.
func E11Overload(seed int64, sc Scale) []E11Row {
	var rows []E11Row
	for _, mult := range []float64{0.5, 1, 2} {
		for _, protected := range []bool{true, false} {
			rows = append(rows, e11Run(seed, sc, mult, protected))
		}
	}
	return rows
}

// e11Run executes one sweep point and gathers its row.
func e11Run(seed int64, sc Scale, mult float64, protected bool) E11Row {
	cfg := e11Config(seed, protected)
	w := rdpcore.NewWorld(cfg)
	horizon := sc.Horizon

	// Poisson arrivals per host, dimensioned so the aggregate offered
	// rate is mult × capacity.
	mean := time.Duration(float64(sc.MHs) / (e11Capacity() * mult) * float64(time.Second))
	pl := play(rdpWorld{w}, sc.MHs, workload.Script{
		Start: 1,
		Requests: workload.Requests{
			Interarrival: netsim.Exponential{MeanDelay: mean, Floor: time.Millisecond},
			Servers:      w.ServerList(),
			PayloadBytes: 32,
		},
		Horizon: horizon,
	}.Generate)
	// Goodput is measured over the issuing horizon only — the
	// steady-state plateau — so neither variant gets credit for backlog
	// drained after the offered load stops.
	var deliveredAtHorizon int64
	w.Schedule(horizon, func() { deliveredAtHorizon = w.Stats.ResultsDelivered.Value() })
	w.RunUntil(horizon + horizon/2)

	var lostAdmitted int64
	for _, is := range pl.Ledger {
		if mh := w.MHs[is.MH]; mh.Admitted(is.Req) && !mh.Seen(is.Req) {
			lostAdmitted++
		}
	}
	return E11Row{
		OfferedX:      mult,
		Protected:     protected,
		Issued:        int64(len(pl.Ledger)),
		Delivered:     w.Stats.ResultsDelivered.Value(),
		Refusals:      w.Stats.BusyRefusals.Value(),
		ClientRetries: w.Stats.BusyRetries.Value() + w.Stats.RequestRetries.Value(),
		Abandoned:     w.Stats.RequestsAbandoned.Value(),
		Duplicates:    w.Stats.DuplicateDeliveries.Value(),
		GoodputPct:    100 * float64(deliveredAtHorizon) / (e11Capacity() * horizon.Seconds()),
		P99Latency:    w.Stats.ResultLatency.Quantile(0.99),
		InboxPeak:     w.Stats.InboxPeak.Value(),
		NetworkShed:   w.Stats.NetworkShed.Value(),
		LostAdmitted:  lostAdmitted,
	}
}
