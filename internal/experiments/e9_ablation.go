package experiments

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/rdpcore"
)

// E9Row compares one inactivity level with the §5 footnote 3
// optimization off and on.
type E9Row struct {
	InactiveProb   float64
	Hold           bool
	Delivered      int64
	Retrans        int64
	WirelessDrops  int64
	HeldResults    int64
	MeanLatency    time.Duration
	UpdateCurrLocs int64
}

// E9HoldForInactive is the ablation for the paper's §5 footnote 3
// optimization: "if the MSS is able to detect that the target MH is
// currently inactive, it may keep the message, save the re-transmission
// by the proxy, and wait until the MH becomes active again." For each
// inactivity level the same seeded workload runs with the optimization
// off and on; the optimization should convert proxy retransmissions and
// wasted wireless sends into held results without hurting delivery or
// latency.
func E9HoldForInactive(seed int64, sc Scale) []E9Row {
	var rows []E9Row
	for _, inact := range []float64{0.2, 0.5} {
		for _, hold := range []bool{false, true} {
			cfg := baseConfig(seed)
			cfg.HoldForInactive = hold
			w := rdpcore.NewWorld(cfg)
			delivered := drive(rdpWorld{w}, sc, netsim.Exponential{MeanDelay: time.Second, Floor: 100 * time.Millisecond}, inact).delivered
			rows = append(rows, E9Row{
				InactiveProb:   inact,
				Hold:           hold,
				Delivered:      delivered,
				Retrans:        w.Stats.Retransmissions.Value(),
				WirelessDrops:  w.Stats.WirelessDrops.Value(),
				HeldResults:    w.Stats.HeldResults.Value(),
				MeanLatency:    w.Stats.ResultLatency.Mean(),
				UpdateCurrLocs: w.Stats.UpdateCurrLocs.Value(),
			})
		}
	}
	return rows
}
