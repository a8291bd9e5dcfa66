package experiments

import (
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/mobileip"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/proxymig"
	"repro/internal/rdpcore"
	"repro/internal/sim"
	"repro/internal/workload"
)

// E12 topology: a metropolitan ring of stations with distance-dependent
// backbone latency, the setting where a statically anchored proxy pays
// an ever-longer triangle route as its MH walks away. Servers hang off
// the ring at the flat wired latency.
const (
	e12Stations   = 12
	e12RingBase   = 2 * time.Millisecond
	e12RingPerHop = 2 * time.Millisecond
)

// E12Row is one policy variant of experiment E12.
type E12Row struct {
	Policy    string
	Issued    int64
	Delivered int64
	Ratio     float64
	// MeanHops and WorstHops measure route stretch: ring hops crossed by
	// each result forward (RDP) or home-agent tunnel (Mobile IP).
	MeanHops    float64
	WorstHops   int64
	MeanLatency time.Duration
	P95Latency  time.Duration
	// Migrations counts completed proxy migrations, Refused the offers
	// the target declined; MigMsgs/MigBytes are the control-plane cost.
	Migrations int64
	Refused    int64
	MigMsgs    int64
	MigBytes   int64
	// Jain is the fairness of where delivery state lived and worked:
	// per-station proxy-seconds for RDP, per-station tunnel load for the
	// Mobile IP baseline.
	Jain float64
	Dups int64
}

// e12Config assembles the ring world for one RDP policy variant. Slow
// servers (≈2s) and short cell residence (≈500ms, set by the driver)
// mean an MH typically crosses several cells while a request is in
// service — the high-migration-rate regime the subsystem targets.
func e12Config(seed int64, pol proxymig.Policy) rdpcore.Config {
	cfg := baseConfig(seed)
	cfg.NumMSS = e12Stations
	cfg.WiredLatency = netsim.Constant(5 * time.Millisecond) // server links
	cfg.WiredPairLatency = netsim.RingLatency(e12Stations, e12RingBase, e12RingPerHop)
	cfg.WirelessLatency = netsim.Constant(10 * time.Millisecond)
	cfg.ServerProc = netsim.Exponential{MeanDelay: 2 * time.Second, Floor: 200 * time.Millisecond}
	cfg.Migration = pol
	cfg.StationDistance = proxymig.RingDistance(e12Stations)
	return cfg
}

// e12Drive runs the E12 workload on either protocol: every MH walks the
// ring cell by cell (workload.RingWalk) with ≈500ms residence, so its
// distance from any fixed anchor drifts upward, issuing Poisson requests
// against the slow servers.
func e12Drive(p protocol, sc Scale) delivery {
	pl := play(p, sc.MHs, workload.Script{
		Cells: p.StationList(),
		Mobility: workload.Mobility{
			Picker:    workload.RingWalk{Cells: p.StationList()},
			Residence: netsim.Exponential{MeanDelay: 500 * time.Millisecond, Floor: 100 * time.Millisecond},
		},
		Requests: workload.Requests{
			Interarrival: netsim.Exponential{MeanDelay: 1200 * time.Millisecond, Floor: 50 * time.Millisecond},
			Servers:      p.ServerList(),
			PayloadBytes: 32,
		},
		Horizon: sc.Horizon,
	}.Generate)
	p.RunUntil(sc.Horizon + sc.Horizon/2)
	return tally(p, pl.Ledger)
}

// E12Migration sweeps the proxy-migration policy — fixed proxy, hop
// thresholds k ∈ {1,2,4,8}, load-driven — over the ring workload and
// adds the Mobile IP baseline with each MH's home agent at its start
// cell (the static-anchor analogue of the fixed proxy). Expected shape:
// the fixed proxy's mean forwarding hops drift toward the ring mean
// while hop-threshold migration bounds them near k at a quantified
// message overhead; migration also spreads proxy residence across the
// ring, beating the baseline's static anchors on Jain fairness — all
// without giving up exactly-once delivery, which Mobile IP loses.
func E12Migration(seed int64, sc Scale) []E12Row {
	variants := []struct {
		name string
		pol  proxymig.Policy
	}{
		{"RDP fixed proxy", proxymig.Policy{}},
		{"RDP hop k=1", proxymig.Policy{HopThreshold: 1, MinInterval: 250 * time.Millisecond}},
		{"RDP hop k=2", proxymig.Policy{HopThreshold: 2, MinInterval: 250 * time.Millisecond}},
		{"RDP hop k=4", proxymig.Policy{HopThreshold: 4, MinInterval: 250 * time.Millisecond}},
		{"RDP hop k=8", proxymig.Policy{HopThreshold: 8, MinInterval: 250 * time.Millisecond}},
		{"RDP load-driven", proxymig.Policy{LoadDriven: true, MinInterval: 250 * time.Millisecond}},
	}
	var rows []E12Row
	for _, v := range variants {
		w := rdpcore.NewWorld(e12Config(seed, v.pol))
		d := e12Drive(rdpWorld{w}, sc)
		meanHops := 0.0
		if c := w.Stats.ForwardCount.Value(); c > 0 {
			meanHops = float64(w.Stats.ForwardHops.Value()) / float64(c)
		}
		rows = append(rows, E12Row{
			Policy:      v.name,
			Issued:      d.issued,
			Delivered:   d.delivered,
			Ratio:       d.ratio(),
			MeanHops:    meanHops,
			WorstHops:   w.Stats.ForwardHopMax.Value(),
			MeanLatency: w.Stats.ResultLatency.Mean(),
			P95Latency:  w.Stats.ResultLatency.Quantile(0.95),
			Migrations:  w.Stats.MigCompleted.Value(),
			Refused:     w.Stats.MigRefusals.Value(),
			MigMsgs:     w.Stats.MigMessages.Value(),
			MigBytes:    w.Stats.MigStateBytes.Value(),
			Jain:        metrics.JainIndex(w.Stats.HostLoads(w.StationList())),
			Dups:        w.Stats.DuplicateDeliveries.Value(),
		})
	}
	return append(rows, e12MobileIP(seed, sc))
}

// e12MobileIP runs the same ring workload under the Mobile IP baseline.
// Each MH's home agent is its starting station, exactly where RDP would
// create (and pin) the first proxy; tunnel hops are measured by an
// observer over the ring distance of every home-agent tunnel send.
func e12MobileIP(seed int64, sc Scale) E12Row {
	dist := proxymig.RingDistance(e12Stations)
	var hopSum, worstHops int64
	mcfg := mipConfig(e12Config(seed, proxymig.Policy{}))
	mcfg.RequestTimeout = 2 * time.Second // upper-layer recovery shim
	mcfg.Observer = func(at sim.Time, layer netsim.Layer, kind netsim.EventKind, from, to ids.NodeID, m msg.Message) {
		if layer != netsim.LayerWired || kind != netsim.EventSent || m.Kind() != msg.KindMIPTunnel {
			return
		}
		d := int64(dist(from.MSS(), to.MSS()))
		hopSum += d
		if d > worstHops {
			worstHops = d
		}
	}
	mw := mobileip.NewWorld(mcfg)
	// Home agent = starting cell.
	d := e12Drive(mipWorld{mw, func(_ ids.MH, start ids.MSS) ids.MSS { return start }}, sc)
	// Local tunnels (care-of = home) never hit the wire; they count as
	// zero-hop forwards in the mean, same as an RDP proxy forwarding to
	// its own cell.
	meanHops := 0.0
	if tn := mw.Stats.Tunnels.Value(); tn > 0 {
		meanHops = float64(hopSum) / float64(tn)
	}
	return E12Row{
		Policy:      "MobileIP home=start",
		Issued:      d.issued,
		Delivered:   d.delivered,
		Ratio:       d.ratio(),
		MeanHops:    meanHops,
		WorstHops:   worstHops,
		MeanLatency: mw.Stats.ResultLatency.Mean(),
		P95Latency:  mw.Stats.ResultLatency.Quantile(0.95),
		Jain:        metrics.JainIndex(tunnelLoads(mw)),
		Dups:        mw.Stats.Duplicates.Value(),
	}
}
