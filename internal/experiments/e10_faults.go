package experiments

import (
	"time"

	"repro/internal/faults"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/rdpcore"
	"repro/internal/sim"
)

// E10Row is one sweep point of experiment E10: a wired loss rate and a
// number of MSS crash/restart windows, with the recovery stack (wired
// ARQ + stable-store checkpointing + hand-off timeouts + registration
// confirmations) either on or off.
type E10Row struct {
	Loss            float64
	Crashes         int
	Recovery        bool
	Issued          int64
	Delivered       int64
	Ratio           float64
	Duplicates      int64
	WiredDrops      int64
	RecoveryResends int64
	HandoffReissues int64
	CheckpointOps   int64
}

// e10Plan builds the declarative fault schedule for one sweep point: a
// uniform per-link fault distribution derived from the loss rate (drops,
// a quarter as many duplicates, equally many delays up to 30ms — i.e.
// reordering), plus crash/restart windows spread across the issuing
// horizon. Every crashed station restarts 3 seconds later — well before
// the drain ends, so ARQ senders always reach their peer again.
func e10Plan(loss float64, crashes int, sc Scale) faults.Plan {
	plan := faults.Plan{
		Default: faults.LinkFaults{
			DropProb:  loss,
			DupProb:   loss / 4,
			DelayProb: loss,
			DelayMax:  30 * time.Millisecond,
		},
	}
	victims := []ids.MSS{2, 5, 7}
	for i := 0; i < crashes && i < len(victims); i++ {
		at := sc.Horizon * time.Duration(3+3*i) / 10
		plan.Crashes = append(plan.Crashes, faults.Crash{
			MSS: victims[i], At: at, RestartAt: at + 3*time.Second,
		})
	}
	return plan
}

// e10Config assembles the world configuration for one sweep point. The
// recovery variant layers the full robustness stack over the base
// network; the ablation removes it all — and causal order with it, since
// causal delivery over a backbone that permanently drops frames wedges
// every causally-later message (the failure mode the ARQ exists to fix).
// Wireless latency is pinned to a constant so the only nondeterminism
// under study is the injected wired chaos.
func e10Config(seed int64, recovery bool) rdpcore.Config {
	cfg := baseConfig(seed)
	cfg.WirelessLatency = netsim.Constant(20 * time.Millisecond)
	if recovery {
		cfg.WiredARQ = netsim.ARQConfig{Enabled: true, RTO: 60 * time.Millisecond, MaxBackoff: 250 * time.Millisecond}
		cfg.Checkpoint = true
		cfg.RecoveryGrace = 400 * time.Millisecond
		cfg.HandoffTimeout = 500 * time.Millisecond
		cfg.RegConfirm = true
		cfg.GreetRefresh = 2 * time.Second
		// The client-side retry covers the one loss the wired recovery
		// stack cannot see: a request uplinked into a cell whose station
		// is down is dropped on the radio. The timeout must exceed the
		// worst crash-induced delivery delay (3s outage + ARQ backoff +
		// recovery grace), or the retry re-fetches results that were
		// merely delayed and every such re-fetch becomes a duplicate.
		cfg.RequestTimeout = 6 * time.Second
	} else {
		cfg.Causal = false
	}
	return cfg
}

// E10WiredFaults removes the paper's two reliability assumptions — the
// reliable causal wired network (assumption 1) and the implicit "support
// stations do not fail" — and measures what restores the delivery
// guarantee. It sweeps the wired loss rate and the number of MSS
// crash/restart windows; for each point the same seeded workload runs
// with the recovery stack on and off. Expected shape: with recovery,
// delivery stays at 100% at every swept loss rate (≤ 20%) and crash
// count, with few duplicates — on seed 1 none but 3 at 20% loss and two
// crashes, and 137 over the 72 recovery rows of seeds 1–12; the ablation
// loses results as soon as faults are injected, degrading further with
// loss and crashes.
func E10WiredFaults(seed int64, sc Scale) []E10Row {
	var rows []E10Row
	for _, loss := range []float64{0.05, 0.10, 0.20} {
		for _, crashes := range []int{1, 2} {
			for _, recovery := range []bool{true, false} {
				cfg := e10Config(seed, recovery)
				k := sim.NewKernel(cfg.Seed)
				inj := faults.New(k, e10Plan(loss, crashes, sc))
				cfg.WiredFaults = inj
				w := rdpcore.NewWorldOn(k, cfg)
				inj.Schedule(w.CrashMSS, w.RestartMSS)
				d := drive(rdpWorld{w}, sc, netsim.Exponential{MeanDelay: 3 * time.Second, Floor: 300 * time.Millisecond}, 0)
				rows = append(rows, E10Row{
					Loss:            loss,
					Crashes:         crashes,
					Recovery:        recovery,
					Issued:          d.issued,
					Delivered:       d.delivered,
					Ratio:           d.ratio(),
					Duplicates:      w.Stats.DuplicateDeliveries.Value(),
					WiredDrops:      w.Stats.WiredDrops.Value(),
					RecoveryResends: w.Stats.RecoveryResends.Value(),
					HandoffReissues: w.Stats.HandoffReissues.Value(),
					CheckpointOps:   w.CheckpointWrites(),
				})
			}
		}
	}
	return rows
}
