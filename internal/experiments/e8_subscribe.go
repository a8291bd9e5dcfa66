package experiments

import (
	"time"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/rdpcore"
	"repro/internal/sidam"
	"repro/internal/workload"
)

// E8Row is one sweep point of experiment E8.
type E8Row struct {
	MeanResidence time.Duration
	Subscriptions int64
	Fired         int64 // notifications generated at the owning TIS
	Received      int64 // notifications delivered to the roaming subscriber
	Ratio         float64
	RemoteOps     int64
	MeanHops      float64
}

// E8Subscriptions exercises the paper's subscribe operation end-to-end:
// roaming subscribers register threshold watches on SIDAM traffic
// regions while staff hosts feed updates; every notification generated
// must reach its (migrating, occasionally sleeping) subscriber. Paper
// claim (§3): "the RDP may as well be used for implementing the
// operation subscribe, by which a mobile client is informed of any major
// change in the traffic situation".
func E8Subscriptions(seed int64, sc Scale) []E8Row {
	var rows []E8Row
	for _, res := range []time.Duration{500 * time.Millisecond, 2 * time.Second} {
		cfg := baseConfig(seed)
		cfg.NumServers = 4
		w := rdpcore.NewWorld(cfg)
		net := sidam.Install(w, sidam.Config{
			Regions:           32,
			LocalProc:         netsim.Constant(15 * time.Millisecond),
			HopProc:           netsim.Constant(5 * time.Millisecond),
			InitialCongestion: 0,
		})
		cells := w.StationList()
		tises := net.TISList()

		var received int64
		subscribers := sc.MHs
		pl := &workload.Player{Sched: w.Kernel, Sys: w}
		roam := workload.Script{
			Mobility: workload.Mobility{
				Picker:       workload.UniformCells{Cells: cells},
				Residence:    netsim.Exponential{MeanDelay: res, Floor: res / 10},
				InactiveProb: 0.1,
				InactiveDur:  netsim.Exponential{MeanDelay: res, Floor: res / 5},
			},
			Horizon: sc.Horizon,
			WakeAt:  sc.Horizon + 200*time.Millisecond,
		}
		// Subscribers roam and watch one region each (threshold 20),
		// re-subscribing after each notification for a continuous feed.
		for i := 1; i <= subscribers; i++ {
			mhID := ids.MH(i)
			rng := w.Kernel.RNG().Fork()
			start := cells[rng.Intn(len(cells))]
			mh := w.AddMH(mhID, start)
			region := uint32(rng.Intn(32))
			entry := tises[rng.Intn(len(tises))]
			resub := func() { mh.IssueRequest(entry, sidam.EncodeSubscribe(region, 20)) }
			mh.OnResult(func(_ ids.RequestID, _ []byte, dup bool) {
				if dup {
					return
				}
				received++
				w.Schedule(0, resub)
			})
			w.Schedule(0, resub)

			roam.Start = start
			_, script := roam.Generate(rng)
			pl.Schedule(mhID, script)
		}

		// Staff hosts feed updates that swing each region's congestion
		// far past every threshold.
		staffID := ids.MH(subscribers + 1)
		staff := w.AddMH(staffID, cells[0])
		staffRng := w.Kernel.RNG().Fork()
		for at := 500 * time.Millisecond; at < sc.Horizon; at += 500 * time.Millisecond {
			at := at
			w.Schedule(at, func() {
				region := uint32(staffRng.Intn(32))
				value := int32(staffRng.Intn(101))
				staff.IssueRequest(tises[staffRng.Intn(len(tises))], sidam.EncodeUpdate(region, value))
			})
		}

		w.RunUntil(sc.Horizon + sc.Horizon/2)

		fired := net.Stats.Notifications.Value()
		ratio := 0.0
		if fired > 0 {
			ratio = float64(received) / float64(fired)
		}
		meanHops := 0.0
		if r := net.Stats.RemoteOps.Value(); r > 0 {
			meanHops = float64(net.Stats.HopsTotal.Value()) / float64(r)
		}
		rows = append(rows, E8Row{
			MeanResidence: res,
			Subscriptions: net.Stats.Subscriptions.Value(),
			Fired:         fired,
			Received:      received,
			Ratio:         ratio,
			RemoteOps:     net.Stats.RemoteOps.Value(),
			MeanHops:      meanHops,
		})
	}
	return rows
}
