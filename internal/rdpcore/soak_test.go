package rdpcore

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/workload"
)

// soakParams configures one randomized end-to-end run.
type soakParams struct {
	seed            int64
	mhs             int
	cells           int
	loss            float64
	retry           time.Duration
	holdForInactive bool
	procDelay       time.Duration
	inactiveProb    float64
	horizon         time.Duration
	drainFor        time.Duration
}

// soak drives a random world: every MH follows a random itinerary and
// issues Poisson requests during the first part of the horizon, then the
// system drains. It checks global invariants midway and at the end and
// asserts full delivery and zero duplicates/violations (valid under
// causal order and with client retry enabled when loss > 0).
func soak(t *testing.T, p soakParams) *World {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = p.seed
	cfg.NumMSS = p.cells
	cfg.NumServers = 2
	cfg.WiredLatency = netsim.Uniform{Lo: time.Millisecond, Hi: 15 * time.Millisecond}
	cfg.WirelessLatency = netsim.Uniform{Lo: 5 * time.Millisecond, Hi: 25 * time.Millisecond}
	cfg.WirelessLoss = p.loss
	cfg.RequestTimeout = p.retry
	cfg.HoldForInactive = p.holdForInactive
	cfg.ProcDelay = p.procDelay
	cfg.ServerProc = netsim.Exponential{MeanDelay: 300 * time.Millisecond, Floor: 20 * time.Millisecond}
	w := NewWorld(cfg)

	cells := w.StationList()
	issueUntil := p.horizon - p.drainFor
	reqs := make(map[ids.MH][]ids.RequestID)

	for i := 1; i <= p.mhs; i++ {
		mhID := ids.MH(i)
		rng := w.Kernel.RNG().Fork()
		start := cells[rng.Intn(len(cells))]
		mh := w.AddMH(mhID, start)

		mob := workload.Mobility{
			Picker:            workload.UniformCells{Cells: cells},
			Residence:         netsim.Exponential{MeanDelay: 800 * time.Millisecond, Floor: 50 * time.Millisecond},
			InactiveProb:      p.inactiveProb,
			InactiveDur:       netsim.Exponential{MeanDelay: 1200 * time.Millisecond, Floor: 100 * time.Millisecond},
			MoveWhileInactive: 0.4,
		}
		// Mobility runs while requests are issued; the drain phase then
		// needs every MH reachable, so an MH left inactive by the tail of
		// its itinerary is woken once at the start of the drain (an MH
		// that stays asleep forever legitimately never gets its results —
		// the guarantee is "eventually", conditioned on reactivation).
		for _, ev := range workload.Itinerary(rng, mob, start, issueUntil) {
			ev := ev
			w.Kernel.Defer(ev.At, func() {
				switch ev.Kind {
				case workload.EvMigrate:
					w.Migrate(mhID, ev.Cell)
				case workload.EvDeactivate:
					w.SetActive(mhID, false)
				case workload.EvActivate:
					if ev.Cell != w.Location(mhID) {
						w.Migrate(mhID, ev.Cell)
					}
					w.SetActive(mhID, true)
				}
			})
		}
		w.Kernel.Defer(issueUntil+500*time.Millisecond, func() {
			w.SetActive(mhID, true) // no-op when already active
		})
		reqCfg := workload.Requests{
			Interarrival: netsim.Exponential{MeanDelay: 700 * time.Millisecond, Floor: 10 * time.Millisecond},
			Servers:      []ids.Server{1, 2},
			PayloadBytes: 24,
		}
		for _, a := range workload.Schedule(rng, reqCfg, issueUntil) {
			a := a
			w.Kernel.Defer(a.At, func() {
				reqs[mhID] = append(reqs[mhID], mh.IssueRequest(a.Server, a.Payload))
			})
		}
	}

	// Invariant probes during the run.
	for frac := 1; frac <= 4; frac++ {
		at := p.horizon * time.Duration(frac) / 5
		w.Kernel.Defer(at, func() {
			if err := w.CheckInvariants(); err != nil {
				t.Errorf("invariants at %v: %v", at, err)
			}
		})
	}

	w.RunUntil(p.horizon)

	if err := w.CheckInvariants(); err != nil {
		t.Errorf("invariants at end: %v", err)
	}
	if got := w.Stats.Violations.Value(); got != 0 && p.loss == 0 {
		// Under reliable wireless the del-proxy condition never fires
		// with genuinely unanswered requests pending. With loss, an MH
		// whose ack vanished can hold a result the proxy still counts as
		// pending, making the (benign) mismatch possible.
		t.Errorf("Violations = %d, want 0 without wireless loss", got)
	}
	// §5 grants exactly-once only conditionally: the ack must reach the
	// old respMss before the hand-off dereg does. With variable wireless
	// latency that race is occasionally lost (the ack is ignored and the
	// proxy retransmits), so a small duplicate rate is expected protocol
	// behaviour — the MH "is able to identify duplicated messages".
	if dup, del := w.Stats.DuplicateDeliveries.Value(), w.Stats.ResultsDelivered.Value(); p.loss == 0 && del > 0 && dup*50 > del {
		t.Errorf("DuplicateDeliveries = %d of %d delivered; expected only the rare ignored-ack race (<2%%)", dup, del)
	}
	missing := 0
	total := 0
	for mhID, rs := range reqs {
		mh := w.MHs[mhID]
		for _, r := range rs {
			total++
			if !mh.Seen(r) {
				missing++
			}
		}
	}
	if total == 0 {
		t.Fatal("soak issued no requests; parameters degenerate")
	}
	if missing != 0 {
		t.Errorf("%d of %d requests undelivered after drain (issued=%d delivered=%d retrans=%d drops=%d)",
			missing, total,
			w.Stats.RequestsIssued.Value(), w.Stats.ResultsDelivered.Value(),
			w.Stats.Retransmissions.Value(), w.Stats.WirelessDrops.Value())
	}
	return w
}

func TestSoakLosslessMobility(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			soak(t, soakParams{
				seed:         seed,
				mhs:          12,
				cells:        6,
				inactiveProb: 0.2,
				// No random loss: reliability must come from the protocol
				// alone (no retry shim). Drain must be generous: a result
				// arriving while its MH sleeps waits for reactivation.
				horizon:  50 * time.Second,
				drainFor: 20 * time.Second,
			})
		})
	}
}

func TestSoakWithWirelessLoss(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w := soak(t, soakParams{
				seed:         seed + 100,
				mhs:          10,
				cells:        5,
				loss:         0.15,
				retry:        2 * time.Second, // recovers lost acks/results for stationary hosts
				inactiveProb: 0.15,
				horizon:      60 * time.Second,
				drainFor:     25 * time.Second,
			})
			if w.Stats.WirelessDrops.Value() == 0 {
				t.Error("no wireless drops recorded at 15% loss")
			}
		})
	}
}

func TestSoakHoldForInactive(t *testing.T) {
	w := soak(t, soakParams{
		seed:            42,
		mhs:             10,
		cells:           5,
		holdForInactive: true,
		inactiveProb:    0.35,
		horizon:         50 * time.Second,
		drainFor:        20 * time.Second,
	})
	if w.Stats.HeldResults.Value() == 0 {
		t.Error("hold-for-inactive optimization never triggered despite 35% inactivity")
	}
}

func TestSoakWithProcessingDelay(t *testing.T) {
	soak(t, soakParams{
		seed:         7,
		mhs:          8,
		cells:        5,
		procDelay:    2 * time.Millisecond,
		inactiveProb: 0.2,
		horizon:      40 * time.Second,
		drainFor:     15 * time.Second,
	})
}

func TestSoakPingPong(t *testing.T) {
	// Adversarial hand-off churn: two MHs bouncing between two cells
	// every ~60ms, well below the wired+wireless round trip.
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.NumMSS = 2
	cfg.WiredLatency = netsim.Constant(10 * time.Millisecond)
	cfg.WirelessLatency = netsim.Constant(15 * time.Millisecond)
	cfg.ServerProc = netsim.Constant(200 * time.Millisecond)
	w := NewWorld(cfg)

	var reqs []ids.RequestID
	mh := w.AddMH(1, 1)
	for i := 0; i < 50; i++ {
		at := time.Duration(i) * 60 * time.Millisecond
		cell := ids.MSS(i%2 + 1)
		w.Kernel.Defer(at, func() { w.Migrate(1, cell) })
	}
	for i := 0; i < 10; i++ {
		at := time.Duration(i) * 250 * time.Millisecond
		w.Kernel.Defer(at, func() { reqs = append(reqs, mh.IssueRequest(1, []byte("pp"))) })
	}
	w.RunUntil(30 * time.Second)

	for _, r := range reqs {
		if !mh.Seen(r) {
			t.Errorf("%v undelivered under ping-pong churn", r)
		}
	}
	if got := w.Stats.Violations.Value(); got != 0 {
		t.Errorf("Violations = %d, want 0", got)
	}
	if w.Stats.Retransmissions.Value() == 0 {
		t.Error("ping-pong below the §5 threshold should force retransmissions")
	}
	// Exactly-once holds only when the MH "stays in its cell for a
	// sufficiently long period" (§5); ping-pong below the round-trip time
	// deliberately breaks that premise, so duplicates may occur — but
	// they must be *detected* (assumption 5), which is what the counter
	// records. Only a runaway duplicate storm would be a bug.
	if dup := w.Stats.DuplicateDeliveries.Value(); dup > int64(len(reqs)) {
		t.Errorf("DuplicateDeliveries = %d for %d requests; duplicate storm", dup, len(reqs))
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSoakDeterminism(t *testing.T) {
	run := func() (int64, int64, int64) {
		w := soak(t, soakParams{
			seed:         11,
			mhs:          6,
			cells:        4,
			inactiveProb: 0.25,
			horizon:      30 * time.Second,
			drainFor:     12 * time.Second,
		})
		return w.Stats.RequestsIssued.Value(), w.Stats.Retransmissions.Value(), w.Stats.Handoffs.Value()
	}
	i1, r1, h1 := run()
	i2, r2, h2 := run()
	if i1 != i2 || r1 != r2 || h1 != h2 {
		t.Errorf("same seed diverged: (%d,%d,%d) vs (%d,%d,%d)", i1, r1, h1, i2, r2, h2)
	}
}
