package experiments

import (
	"time"

	"repro/internal/ids"
	"repro/internal/mobileip"
	"repro/internal/netsim"
	"repro/internal/rdpcore"
	"repro/internal/sim"
	"repro/internal/workload"
)

// E5ShiftRow reports, for one protocol, the fraction of forwarding work
// carried by the hotspot stations in each phase of the population-shift
// experiment.
type E5ShiftRow struct {
	Protocol      string
	Phase1Hotspot float64 // load share of the hotspot cells while users roam everywhere
	Phase2Hotspot float64 // load share after every user confines itself to the hotspot
}

// E5DynamicShift sharpens E5's *dynamic* claim: half-way through the
// run, every user's movement confines itself to two "downtown" cells.
// RDP's forwarding work follows them there (new proxies are created
// where requests are issued); Mobile IP's stays wherever the home
// agents were assigned, however well that assignment matched the old
// population. The measured quantity is the share of forwarding work the
// two hotspot stations carry in each phase.
func E5DynamicShift(seed int64, sc Scale) []E5ShiftRow {
	cfg := baseConfig(seed)
	hotspot := []ids.MSS{1, 2}

	// RDP run.
	w := rdpcore.NewWorld(cfg)
	var rdpPhase1 []float64
	w.Schedule(sc.Horizon/2, func() {
		rdpPhase1 = w.Stats.ForwardLoads(w.StationList())
	})
	drivePhased(rdpWorld{w}, sc)
	w.RunUntil(sc.Horizon + sc.Horizon/4)
	rdpPhase2 := diff(w.Stats.ForwardLoads(w.StationList()), rdpPhase1)

	// Mobile IP run with homes spread round-robin (its best static case).
	mcfg := mipConfig(cfg)
	mcfg.RequestTimeout = 2 * time.Second
	mw := mobileip.NewWorld(mcfg)
	var mipPhase1 []float64
	mw.Kernel.Defer(sc.Horizon/2, func() {
		mipPhase1 = tunnelLoads(mw)
	})
	drivePhased(mipWorld{mw, homeSpread(mcfg.NumMSS)}, sc)
	mw.RunUntil(sc.Horizon + sc.Horizon/4)
	mipPhase2 := diff(tunnelLoads(mw), mipPhase1)

	return []E5ShiftRow{
		{
			Protocol:      "RDP (proxies follow users)",
			Phase1Hotspot: share(rdpPhase1, hotspot),
			Phase2Hotspot: share(rdpPhase2, hotspot),
		},
		{
			Protocol:      "Mobile IP (spread homes)",
			Phase1Hotspot: share(mipPhase1, hotspot),
			Phase2Hotspot: share(mipPhase2, hotspot),
		},
	}
}

// drivePhased schedules the two-phase workload on either protocol: in
// phase 1 hosts roam all cells, at the boundary everyone relocates
// downtown, in phase 2 they roam the two hotspot cells only.
func drivePhased(p protocol, sc Scale) {
	cells, half := p.StationList(), sc.Horizon/2
	hotspot := cells[:2]
	walk := func(over []ids.MSS) workload.Mobility {
		return workload.Mobility{
			Picker:    workload.UniformCells{Cells: over},
			Residence: netsim.Exponential{MeanDelay: 800 * time.Millisecond, Floor: 80 * time.Millisecond},
		}
	}
	// The phase-1 walk is generated as if from cells[0], wherever the host
	// actually starts; the pinned tables hold that quirk.
	roam := workload.Script{Start: cells[0], Mobility: walk(cells), Horizon: half}
	downtown := workload.Script{Cells: hotspot, Mobility: walk(hotspot), Horizon: half}
	traffic := workload.Script{
		Requests: workload.Requests{
			Interarrival: netsim.Exponential{MeanDelay: 700 * time.Millisecond, Floor: 20 * time.Millisecond},
			Servers:      p.ServerList(),
			PayloadBytes: 24,
		},
		Horizon: sc.Horizon,
	}
	play(p, sc.MHs, func(rng *sim.RNG) (ids.MSS, []workload.Event) {
		start := cells[rng.Intn(len(cells))]
		_, moves := roam.Generate(rng)
		start2, phase2 := downtown.Generate(rng)
		moves = append(moves, workload.Event{At: half, Kind: workload.EvMigrate, Cell: start2})
		for _, ev := range phase2 {
			ev.At += half
			moves = append(moves, ev)
		}
		_, reqs := traffic.Generate(rng)
		return start, workload.Merge(moves, reqs)
	})
}

func tunnelLoads(mw *mobileip.World) []float64 {
	out := make([]float64, 0, len(mw.StationList()))
	for _, st := range mw.StationList() {
		out = append(out, float64(mw.Stats.TunnelLoad[st]))
	}
	return out
}

// diff returns cur - prev element-wise (prev may be nil).
func diff(cur, prev []float64) []float64 {
	out := make([]float64, len(cur))
	for i := range cur {
		out[i] = cur[i]
		if i < len(prev) {
			out[i] -= prev[i]
		}
	}
	return out
}

// share returns the fraction of total load carried by the given
// stations (station i is index i-1).
func share(loads []float64, stations []ids.MSS) float64 {
	var total, hot float64
	for i, l := range loads {
		total += l
		for _, s := range stations {
			if int(s) == i+1 {
				hot += l
			}
		}
	}
	if total == 0 {
		return 0
	}
	return hot / total
}
