package experiments

import (
	"time"

	"repro/internal/ids"
	"repro/internal/itcp"
	"repro/internal/netsim"
	"repro/internal/rdpcore"
	"repro/internal/workload"
	"repro/internal/wtp"
)

// E15 radio-capacity model. Every mobile host owns one directed
// downlink from its station, so the contended resource is the radio
// link itself, not the station inbox (stations process instantly and
// the wired side is fast). With constant one-way latencies the
// stop-and-wait ceiling of a link is one frame per radio round trip:
// 1/(2·25ms) = 20 frames/s. The sweep offers multiples of that ceiling
// per host, crossed with the E10-style loss grid, and compares four
// transports over the identical seeded workload:
//
//	windowed  — the E15 transport at its defaults (window 32, AIMD
//	            cwnd, SACK fast retransmit, downlink coalescing)
//	stopwait  — the same code degenerated to one un-coalesced frame in
//	            flight (Window 1, MTU 1, immediate flush): the
//	            pre-E15 wireless ARQ discipline
//	plain     — no wireless ARQ at all; admitted results lost to the
//	            radio stay lost (GreetRefresh is off so nothing
//	            re-forwards them — the row documents why a bare lossy
//	            downlink breaks the delivery guarantee)
//	itcp      — the I-TCP baseline with its wireless TCP hop carried
//	            by the same windowed transport, for a cross-protocol
//	            reference on equal terms
const (
	e15WiredOneWay    = 2 * time.Millisecond
	e15WirelessOneWay = 25 * time.Millisecond
)

// e15LinkRate is one downlink's stop-and-wait ceiling in frames/second.
func e15LinkRate() float64 { return 1.0 / (2 * e15WirelessOneWay).Seconds() }

// e15MHs caps the host count: links are independent and identical, so
// extra hosts multiply cost without adding information.
func e15MHs(sc Scale) int {
	if sc.MHs > 8 {
		return 8
	}
	return sc.MHs
}

// E15Row is one sweep point of experiment E15.
type E15Row struct {
	Loss      float64
	OfferedX  float64 // offered load per host as a multiple of the stop-and-wait ceiling
	Transport string
	Offered   int64
	Delivered int64
	// GoodputPct is results delivered during the issuing horizon as a
	// percentage of the requests offered in it (the drain after the
	// horizon earns no credit).
	GoodputPct float64
	P99Latency time.Duration
	// Windowed-transport counters (zero on the plain rows).
	Retransmits int64
	Resets      int64
	Frames      int64
	FrameMsgs   int64
	Duplicates  int64
	// LostAdmitted counts requests the station admitted but never
	// delivered by the end of the run (-1 on the itcp rows, which have
	// no admission accounting). Nonzero is expected where the row's
	// transport cannot keep up — a stop-and-wait backlog past the
	// drain, or plain losses — and is a violation only for windowed.
	LostAdmitted int64
	// Transport profile from the world's WTP histograms (RDP rows with
	// the transport on; zero for plain and itcp): Karn-valid RTT
	// samples, the smoothed RTO after each, and the congestion window
	// in frames after every change.
	RttP50   time.Duration
	RttP99   time.Duration
	RtoP50   time.Duration
	CwndMean float64
}

// E15WindowedTransport runs the loss × load × transport grid. Expected
// shape: the windowed transport holds goodput near the offered load at
// every point (coalescing lifts the per-frame ceiling, the window
// keeps the pipe full, SACK recovery absorbs loss), while stop-and-wait
// saturates at its per-link ceiling — before loss — and collapses
// further as every drop costs a full RTO. Plain tracks (1-loss) until
// it silently sheds admitted results; I-TCP over the same windowed hop
// matches windowed RDP.
func E15WindowedTransport(seed int64, sc Scale) []E15Row {
	var rows []E15Row
	for _, loss := range []float64{0.05, 0.10, 0.20} {
		for _, mult := range []float64{1, 2} {
			for _, tr := range []string{"windowed", "stopwait", "plain", "itcp"} {
				if tr == "itcp" {
					rows = append(rows, e15RunITCP(seed, sc, loss, mult))
				} else {
					rows = append(rows, e15Run(seed, sc, loss, mult, tr))
				}
			}
		}
	}
	return rows
}

// e15Config assembles one RDP sweep point. The E11 admission stack is
// armed (high-water far above the instant-processing inbox) purely for
// its accounting: the explicit Admit makes LostAdmitted a measured
// guarantee, not an inference. GreetRefresh stays off so the windowed
// transport — not proxy-level greet recovery — is what carries the
// delivery guarantee across the lossy radio.
func e15Config(seed int64, loss float64, transport string) rdpcore.Config {
	cfg := baseConfig(seed)
	cfg.WiredLatency = netsim.Constant(e15WiredOneWay)
	cfg.WirelessLatency = netsim.Constant(e15WirelessOneWay)
	cfg.ServerProc = netsim.Constant(time.Millisecond)
	cfg.WirelessLoss = loss
	cfg.WirelessQueueLimit = 1024
	cfg.AdmissionHighWater = 64
	switch transport {
	case "windowed":
		cfg.WirelessWTP = wtp.Config{Enabled: true}
	case "stopwait":
		cfg.WirelessWTP = wtp.Config{Enabled: true, Window: 1, MTU: 1, CoalesceDelay: -1}
	}
	return cfg
}

// e15Play offers the E15 load to either protocol: one static host per
// cell slot issuing Poisson requests at mult × the stop-and-wait ceiling.
func e15Play(p protocol, sc Scale, mult float64) *workload.Player {
	cells := len(p.StationList())
	s := workload.Script{
		Requests: workload.Requests{
			Interarrival: netsim.Exponential{MeanDelay: time.Duration(float64(time.Second) / (e15LinkRate() * mult)), Floor: time.Millisecond},
			Servers:      p.ServerList(),
			PayloadBytes: 32,
		},
		Horizon: sc.Horizon,
	}
	pl := &workload.Player{Sched: p.sched(), Sys: p}
	for i := 1; i <= e15MHs(sc); i++ {
		s.Start = ids.MSS(i%cells + 1)
		_, script := s.Generate(p.sched().RNG().Fork())
		p.addHost(ids.MH(i), s.Start)
		pl.Schedule(ids.MH(i), script)
	}
	return pl
}

// e15Run executes one RDP sweep point and gathers its row.
func e15Run(seed int64, sc Scale, loss, mult float64, transport string) E15Row {
	cfg := e15Config(seed, loss, transport)
	w := rdpcore.NewWorld(cfg)
	horizon := sc.Horizon
	pl := e15Play(rdpWorld{w}, sc, mult)
	var deliveredAtHorizon int64
	w.Schedule(horizon, func() { deliveredAtHorizon = w.Stats.ResultsDelivered.Value() })
	w.RunUntil(horizon + horizon/2)

	var lostAdmitted int64
	for _, is := range pl.Ledger {
		if mh := w.MHs[is.MH]; mh.Admitted(is.Req) && !mh.Seen(is.Req) {
			lostAdmitted++
		}
	}
	offered := int64(len(pl.Ledger))
	goodput := 0.0
	if offered > 0 {
		goodput = 100 * float64(deliveredAtHorizon) / float64(offered)
	}
	return E15Row{
		Loss:         loss,
		OfferedX:     mult,
		Transport:    transport,
		Offered:      offered,
		Delivered:    w.Stats.ResultsDelivered.Value(),
		GoodputPct:   goodput,
		P99Latency:   w.Stats.ResultLatency.Quantile(0.99),
		Retransmits:  w.Stats.WTPRetransmits.Value(),
		Resets:       w.Stats.WTPResets.Value(),
		Frames:       w.Stats.WTPFrames.Value(),
		FrameMsgs:    w.Stats.WTPFrameMsgs.Value(),
		Duplicates:   w.Stats.DuplicateDeliveries.Value(),
		LostAdmitted: lostAdmitted,
		RttP50:       w.Stats.WTPRtt.Quantile(0.50),
		RttP99:       w.Stats.WTPRtt.Quantile(0.99),
		RtoP50:       w.Stats.WTPRto.Quantile(0.50),
		CwndMean:     float64(w.Stats.WTPCwnd.Mean()),
	}
}

// e15ITCPConfig is the I-TCP baseline on the E15 network, its downlink
// carried by the same windowed transport.
func e15ITCPConfig(seed int64, loss float64) itcp.Config {
	cfg := e15Config(seed, loss, "windowed")
	icfg := itcp.DefaultConfig()
	icfg.Seed, icfg.NumMSS, icfg.NumServers = seed, cfg.NumMSS, cfg.NumServers
	icfg.WiredLatency, icfg.WirelessLatency, icfg.ServerProc = cfg.WiredLatency, cfg.WirelessLatency, cfg.ServerProc
	icfg.WirelessLoss, icfg.WirelessWTP = loss, cfg.WirelessWTP
	return icfg
}

// e15RunITCP executes the cross-protocol baseline point: the I-TCP
// world from E6 with its downlink carried by the windowed transport.
func e15RunITCP(seed int64, sc Scale, loss, mult float64) E15Row {
	iw := itcp.NewWorld(e15ITCPConfig(seed, loss))
	horizon := sc.Horizon
	pl := e15Play(itcpWorld{iw}, sc, mult)
	var deliveredAtHorizon int64
	iw.Kernel.Defer(horizon, func() { deliveredAtHorizon = iw.Stats.ResultsDelivered.Value() })
	iw.RunUntil(horizon + horizon/2)

	retrans, _, resets, frames, msgs, _ := iw.Wireless.WTPStats()
	offered := int64(len(pl.Ledger))
	goodput := 0.0
	if offered > 0 {
		goodput = 100 * float64(deliveredAtHorizon) / float64(offered)
	}
	return E15Row{
		Loss:         loss,
		OfferedX:     mult,
		Transport:    "itcp",
		Offered:      offered,
		Delivered:    iw.Stats.ResultsDelivered.Value(),
		GoodputPct:   goodput,
		P99Latency:   iw.Stats.ResultLatency.Quantile(0.99),
		Retransmits:  retrans,
		Resets:       resets,
		Frames:       frames,
		FrameMsgs:    msgs,
		Duplicates:   iw.Stats.Duplicates.Value(),
		LostAdmitted: -1,
	}
}

// E15Headline extracts the windowed and stop-and-wait rows at the
// headline grid point — 10% loss, 2× the stop-and-wait ceiling — that
// E15's two pinned headlines are read from.
func E15Headline(rows []E15Row) (windowed, stopwait E15Row, ok bool) {
	var haveW, haveS bool
	for _, r := range rows {
		if r.Loss == 0.10 && r.OfferedX == 2 {
			switch r.Transport {
			case "windowed":
				windowed, haveW = r, true
			case "stopwait":
				stopwait, haveS = r, true
			}
		}
	}
	return windowed, stopwait, haveW && haveS
}
