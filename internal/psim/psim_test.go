// Property tests for the conservative parallel engine. The central
// claims under test:
//
//  1. Determinism: for a FIXED partition (any region assignment, any
//     seed), a run with many worker threads is exactly equal to the
//     same run executed serially — every counter, every latency
//     histogram, every kernel step count. This is the tentpole's
//     "parallel run is metric-identical to the serial run for the same
//     seed and partition" guarantee, exercised on E1-shaped and
//     E12-shaped (ring + proxy migration) worlds with randomly drawn
//     partitions.
//
//  2. Partition invariance of the headline: with the constant-latency
//     topology (E13's), issued/delivered/duplicates are identical
//     across DIFFERENT partitions of the same seed, the delivery ratio
//     is exactly 1, and no request is left undelivered.
package psim_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/proxymig"
	"repro/internal/psim"
	"repro/internal/rdpcore"
	"repro/internal/workload"
	"repro/internal/wtp"
)

// e1Base mirrors the experiments package's standard operating point:
// 8 stations, 2 servers, uniform wired/wireless latencies, exponential
// server processing. Min wired latency 2ms = lookahead.
func e1Base(seed int64) rdpcore.Config {
	cfg := rdpcore.DefaultConfig()
	cfg.Seed = seed
	cfg.NumMSS = 8
	cfg.NumServers = 2
	cfg.WiredLatency = netsim.Uniform{Lo: 2 * time.Millisecond, Hi: 8 * time.Millisecond}
	cfg.WirelessLatency = netsim.Uniform{Lo: 10 * time.Millisecond, Hi: 30 * time.Millisecond}
	cfg.ServerProc = netsim.Exponential{MeanDelay: 150 * time.Millisecond, Floor: 10 * time.Millisecond}
	return cfg
}

// e12Base mirrors the E12 ring world: 12 stations on a metropolitan
// ring (2ms + 2ms/hop pair latency, 5ms server links), 10ms wireless,
// slow servers, hop-triggered proxy migration. Min cross-region wired
// latency is 4ms (adjacent stations); lookahead 2ms is safely below.
func e12Base(seed int64) rdpcore.Config {
	const stations = 12
	cfg := rdpcore.DefaultConfig()
	cfg.Seed = seed
	cfg.NumMSS = stations
	cfg.NumServers = 2
	cfg.WiredLatency = netsim.Constant(5 * time.Millisecond)
	cfg.WiredPairLatency = netsim.RingLatency(stations, 2*time.Millisecond, 2*time.Millisecond)
	cfg.WirelessLatency = netsim.Constant(10 * time.Millisecond)
	cfg.ServerProc = netsim.Exponential{MeanDelay: 400 * time.Millisecond, Floor: 50 * time.Millisecond}
	cfg.Migration = proxymig.Policy{HopThreshold: 1, MinInterval: 250 * time.Millisecond}
	cfg.StationDistance = proxymig.RingDistance(stations)
	return cfg
}

func cellList(n int) []ids.MSS {
	cells := make([]ids.MSS, n)
	for i := range cells {
		cells[i] = ids.MSS(i + 1)
	}
	return cells
}

func serverList(n int) []ids.Server {
	servers := make([]ids.Server, n)
	for i := range servers {
		servers[i] = ids.Server(i + 1)
	}
	return servers
}

// randomAssignment draws a surjective station->region map: the first
// station of each region is pinned so no region is empty, the rest are
// uniform.
func randomAssignment(rng *rand.Rand, stations, regions int) map[ids.MSS]int {
	assign := make(map[ids.MSS]int, stations)
	perm := rng.Perm(stations)
	for r := 0; r < regions; r++ {
		assign[ids.MSS(perm[r]+1)] = r
	}
	for _, i := range perm[regions:] {
		assign[ids.MSS(i+1)] = rng.Intn(regions)
	}
	return assign
}

// build constructs a partitioned world with a scripted random workload.
func build(t *testing.T, base rdpcore.Config, regions, workers, mhs int,
	horizon time.Duration, assign map[ids.MSS]int, mob workload.CellPicker) *psim.World {
	t.Helper()
	cfg := psim.Config{
		Base:      base,
		Regions:   regions,
		Workers:   workers,
		Lookahead: 2 * time.Millisecond,
	}
	if assign != nil {
		cfg.AssignStation = func(id ids.MSS) int { return assign[id] }
	}
	pw := psim.New(cfg)
	cells := cellList(base.NumMSS)
	scfg := psim.ScriptConfig{
		Mobility: workload.Mobility{
			Picker:            mob,
			Residence:         netsim.Exponential{MeanDelay: 800 * time.Millisecond, Floor: 100 * time.Millisecond},
			InactiveProb:      0.25,
			InactiveDur:       netsim.Exponential{MeanDelay: 600 * time.Millisecond, Floor: 100 * time.Millisecond},
			MoveWhileInactive: 0.4,
		},
		Requests: workload.Requests{
			Interarrival: netsim.Exponential{MeanDelay: 900 * time.Millisecond, Floor: 50 * time.Millisecond},
			Servers:      serverList(base.NumServers),
			PayloadBytes: 32,
		},
		Horizon: horizon,
	}
	for i := 1; i <= mhs; i++ {
		id := ids.MH(i)
		start, events := psim.BuildScript(base.Seed, id, cells, scfg)
		pw.AddMH(id, start, events)
	}
	return pw
}

// assertRunsEqual compares two finished runs of the same partition
// counter by counter, region by region.
func assertRunsEqual(t *testing.T, serial, parallel *psim.World, label string) {
	t.Helper()
	ss, ps := serial.Summary(), parallel.Summary()
	if ss != ps {
		t.Fatalf("%s: summaries differ\nserial:   %+v\nparallel: %+v", label, ss, ps)
	}
	sr, pr := serial.RegionStats(), parallel.RegionStats()
	for i := range sr {
		a, b := sr[i], pr[i]
		pairs := []struct {
			name string
			s, p int64
		}{
			{"RequestsIssued", a.RequestsIssued.Value(), b.RequestsIssued.Value()},
			{"ResultsDelivered", a.ResultsDelivered.Value(), b.ResultsDelivered.Value()},
			{"DuplicateDeliveries", a.DuplicateDeliveries.Value(), b.DuplicateDeliveries.Value()},
			{"Retransmissions", a.Retransmissions.Value(), b.Retransmissions.Value()},
			{"Handoffs", a.Handoffs.Value(), b.Handoffs.Value()},
			{"UpdateCurrLocs", a.UpdateCurrLocs.Value(), b.UpdateCurrLocs.Value()},
			{"AckForwards", a.AckForwards.Value(), b.AckForwards.Value()},
			{"WirelessDrops", a.WirelessDrops.Value(), b.WirelessDrops.Value()},
			{"MigCompleted", a.MigCompleted.Value(), b.MigCompleted.Value()},
			{"PrefRedirects", a.PrefRedirects.Value(), b.PrefRedirects.Value()},
			{"ForwardHops", a.ForwardHops.Value(), b.ForwardHops.Value()},
			{"WTPRetransmits", a.WTPRetransmits.Value(), b.WTPRetransmits.Value()},
			{"WTPFrames", a.WTPFrames.Value(), b.WTPFrames.Value()},
			{"WTPFrameMsgs", a.WTPFrameMsgs.Value(), b.WTPFrameMsgs.Value()},
			{"Violations", a.Violations.Value(), b.Violations.Value()},
		}
		for _, p := range pairs {
			if p.s != p.p {
				t.Errorf("%s: region %d %s: serial=%d parallel=%d", label, i, p.name, p.s, p.p)
			}
		}
		if am, bm := a.ResultLatency.Mean(), b.ResultLatency.Mean(); am != bm {
			t.Errorf("%s: region %d ResultLatency mean: serial=%v parallel=%v", label, i, am, bm)
		}
		if am, bm := a.HandoffLatency.Mean(), b.HandoffLatency.Mean(); am != bm {
			t.Errorf("%s: region %d HandoffLatency mean: serial=%v parallel=%v", label, i, am, bm)
		}
	}
	si, pi := serial.IssuedRequests(), parallel.IssuedRequests()
	for i := range si {
		if len(si[i]) != len(pi[i]) {
			t.Errorf("%s: region %d issued %d vs %d requests", label, i, len(si[i]), len(pi[i]))
			continue
		}
		for j := range si[i] {
			if si[i][j] != pi[i][j] {
				t.Errorf("%s: region %d request %d: %v vs %v", label, i, j, si[i][j], pi[i][j])
				break
			}
		}
	}
}

// TestSerialMatchesParallelE1 draws random partitions and seeds of the
// E1-shaped world and requires exact serial/parallel equality.
func TestSerialMatchesParallelE1(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const horizon = 6 * time.Second
	for trial := 0; trial < 3; trial++ {
		seed := int64(100 + rng.Intn(1000))
		regions := 2 + rng.Intn(3)
		base := e1Base(seed)
		assign := randomAssignment(rng, base.NumMSS, regions)
		mob := workload.UniformCells{Cells: cellList(base.NumMSS)}

		serial := build(t, base, regions, 1, 24, horizon, assign, mob)
		serial.RunUntil(horizon + horizon/2)
		parallel := build(t, base, regions, 4, 24, horizon, assign, mob)
		parallel.RunUntil(horizon + horizon/2)

		assertRunsEqual(t, serial, parallel, "e1")
		if v := serial.Summary().Violations; v != 0 {
			t.Fatalf("trial %d: %d protocol violations", trial, v)
		}
	}
}

// TestSerialMatchesParallelE12 does the same on the ring world with
// proxy migration enabled (the heaviest cross-station protocol traffic
// in the repo: hand-offs, migration handshakes, pref redirects).
func TestSerialMatchesParallelE12(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const horizon = 5 * time.Second
	for trial := 0; trial < 2; trial++ {
		seed := int64(500 + rng.Intn(1000))
		regions := 2 + rng.Intn(2)
		base := e12Base(seed)
		assign := randomAssignment(rng, base.NumMSS, regions)
		mob := workload.RingWalk{Cells: cellList(base.NumMSS)}

		serial := build(t, base, regions, 1, 18, horizon, assign, mob)
		serial.RunUntil(horizon + horizon/2)
		parallel := build(t, base, regions, 4, 18, horizon, assign, mob)
		parallel.RunUntil(horizon + horizon/2)

		assertRunsEqual(t, serial, parallel, "e12")
	}
}

// injectCrash splices an EvCrash (and, unless permanent, an EvRestart)
// into a sorted script, keeping it sorted.
func injectCrash(events []psim.MHEvent, crashAt, restartAt time.Duration) []psim.MHEvent {
	extra := []psim.MHEvent{{At: crashAt, Kind: psim.EvCrash}}
	if restartAt > 0 {
		extra = append(extra, psim.MHEvent{At: restartAt, Kind: psim.EvRestart})
	}
	out := make([]psim.MHEvent, 0, len(events)+len(extra))
	for _, ev := range events {
		for len(extra) > 0 && extra[0].At <= ev.At {
			out = append(out, extra[0])
			extra = extra[1:]
		}
		out = append(out, ev)
	}
	return append(out, extra...)
}

// TestSerialMatchesParallelMHCrash injects MH crash/restart events
// (E18) into the E1-shaped world with lease GC enabled and requires
// exact serial/parallel equality — incarnation counters, crash flags,
// and offline journals must survive region transfers bit-for-bit, and
// the lease heartbeat/reclaim machinery must not introduce any
// scheduling nondeterminism. One victim never restarts, so permanent
// orphan reclamation is exercised too.
func TestSerialMatchesParallelMHCrash(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const horizon = 6 * time.Second
	const mhs = 24
	buildCrash := func(workers int, seed int64, assign map[ids.MSS]int) *psim.World {
		base := e1Base(seed)
		base.LeaseTTL = time.Second
		pw := psim.New(psim.Config{
			Base:          base,
			Regions:       3,
			Workers:       workers,
			Lookahead:     2 * time.Millisecond,
			AssignStation: func(id ids.MSS) int { return assign[id] },
		})
		cells := cellList(base.NumMSS)
		scfg := psim.ScriptConfig{
			Mobility: workload.Mobility{
				Picker:            workload.UniformCells{Cells: cells},
				Residence:         netsim.Exponential{MeanDelay: 800 * time.Millisecond, Floor: 100 * time.Millisecond},
				InactiveProb:      0.25,
				InactiveDur:       netsim.Exponential{MeanDelay: 600 * time.Millisecond, Floor: 100 * time.Millisecond},
				MoveWhileInactive: 0.4,
			},
			Requests: workload.Requests{
				Interarrival: netsim.Exponential{MeanDelay: 900 * time.Millisecond, Floor: 50 * time.Millisecond},
				Servers:      serverList(base.NumServers),
				PayloadBytes: 32,
			},
			Horizon: horizon,
		}
		lastVictim := 0
		for i := 1; i <= mhs; i += 4 {
			lastVictim = i
		}
		for i := 1; i <= mhs; i++ {
			id := ids.MH(i)
			start, events := psim.BuildScript(base.Seed, id, cells, scfg)
			if i%4 == 1 {
				restartAt := 3500 * time.Millisecond
				if i == lastVictim {
					restartAt = 0 // permanent casualty: reclaimed by lease expiry
				}
				events = injectCrash(events, 2500*time.Millisecond, restartAt)
			}
			pw.AddMH(id, start, events)
		}
		return pw
	}
	for trial := 0; trial < 2; trial++ {
		seed := int64(700 + rng.Intn(1000))
		assign := randomAssignment(rng, 8, 3)
		serial := buildCrash(1, seed, assign)
		serial.RunUntil(horizon + horizon/2)
		parallel := buildCrash(4, seed, assign)
		parallel.RunUntil(horizon + horizon/2)
		assertRunsEqual(t, serial, parallel, "mhcrash")
		if v := serial.Summary().Violations; v != 0 {
			t.Fatalf("trial %d: %d protocol violations", trial, v)
		}
		// The run must actually exercise the E18 machinery on both
		// engines, or the equality above proves nothing.
		for name, w := range map[string]*psim.World{"serial": serial, "parallel": parallel} {
			var crashes, restarts, beats int64
			for _, s := range w.RegionStats() {
				crashes += s.MHCrashes.Value()
				restarts += s.MHRestarts.Value()
				beats += s.LeaseHeartbeats.Value()
			}
			if crashes != 6 || restarts != 5 {
				t.Errorf("trial %d %s: %d crashes / %d restarts, want 6/5", trial, name, crashes, restarts)
			}
			if beats == 0 {
				t.Errorf("trial %d %s: lease heartbeats never ran", trial, name)
			}
		}
	}
}

// TestSerialMatchesParallelWTP turns on the E15 windowed wireless
// transport with a 10% lossy radio in the E1-shaped world and requires
// exact serial/parallel equality: RTO timers, fast-retransmit triggers,
// cwnd evolution and coalescing all schedule through the region kernel,
// so the window machinery must stay a pure function of seed and
// partition even while MHs carry their downlink state across region
// transfers.
func TestSerialMatchesParallelWTP(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const horizon = 6 * time.Second
	for trial := 0; trial < 2; trial++ {
		seed := int64(300 + rng.Intn(1000))
		regions := 2 + rng.Intn(3)
		base := e1Base(seed)
		base.WirelessWTP = wtp.Config{Enabled: true}
		base.WirelessLoss = 0.10
		assign := randomAssignment(rng, base.NumMSS, regions)
		mob := workload.UniformCells{Cells: cellList(base.NumMSS)}

		serial := build(t, base, regions, 1, 24, horizon, assign, mob)
		serial.RunUntil(horizon + horizon/2)
		parallel := build(t, base, regions, 4, 24, horizon, assign, mob)
		parallel.RunUntil(horizon + horizon/2)

		assertRunsEqual(t, serial, parallel, "wtp")
		// The equality proves nothing unless the transport engaged and the
		// lossy radio actually forced retransmissions on both engines.
		for name, w := range map[string]*psim.World{"serial": serial, "parallel": parallel} {
			var frames, retrans int64
			for _, s := range w.RegionStats() {
				frames += s.WTPFrames.Value()
				retrans += s.WTPRetransmits.Value()
			}
			if frames == 0 {
				t.Errorf("trial %d %s: WTPFrames = 0; windowed transport never engaged", trial, name)
			}
			if retrans == 0 {
				t.Errorf("trial %d %s: WTPRetransmits = 0; lossy radio never exercised the window", trial, name)
			}
		}
	}
}

// TestPooledRecordsDoNotLeak: with every station its own region, every
// wired message crosses a region boundary, and hosts walking the ring
// cross them too. Pooled stepping schedules each region's inbound frames
// and script events on whichever worker steps it; at drain every
// delivery record has fired and come back, every script has run to its
// end, and the run equals the serial one.
func TestPooledRecordsDoNotLeak(t *testing.T) {
	const horizon = 4 * time.Second
	base := e1Base(17)
	var ref psim.Summary
	for _, workers := range []int{1, 4} {
		pw := build(t, base, base.NumMSS, workers, 64, horizon, nil, workload.RingWalk{Cells: cellList(base.NumMSS)})
		pw.RunUntil(horizon + 2*time.Second)
		s := pw.Summary()
		if s.CrossFrames < 500 {
			t.Fatalf("workers=%d: %d cross-region frames; the partition is not cross-heavy", workers, s.CrossFrames)
		}
		if workers == 1 {
			ref = s
		} else if s != ref {
			t.Fatalf("workers=%d: summary differs\nserial: %+v\npooled: %+v", workers, ref, s)
		}
		for i, out := range pw.CrossRecordsOut() {
			if out != 0 {
				t.Errorf("workers=%d: region %d holds %d cross-frame records at drain", workers, i, out)
			}
		}
		if n := pw.UnfinishedScripts(); n != 0 {
			t.Errorf("workers=%d: %d scripts have events left at drain", workers, n)
		}
	}
}

// TestHeadlineIsPartitionInvariant runs the constant-latency topology
// under three different partitions of the same seed: the headline
// metrics must agree exactly, the ratio must be exactly 1, and no
// duplicates or stragglers may exist.
func TestHeadlineIsPartitionInvariant(t *testing.T) {
	const horizon = 5 * time.Second
	base := func(seed int64) rdpcore.Config {
		cfg := rdpcore.DefaultConfig()
		cfg.Seed = seed
		cfg.NumMSS = 8
		cfg.NumServers = 2
		cfg.WiredLatency = netsim.Constant(2 * time.Millisecond)
		cfg.WirelessLatency = netsim.Constant(20 * time.Millisecond)
		cfg.ServerProc = netsim.Exponential{MeanDelay: 120 * time.Millisecond, Floor: 10 * time.Millisecond}
		return cfg
	}
	rng := rand.New(rand.NewSource(3))
	var ref psim.Summary
	for i, regions := range []int{1, 2, 4} {
		b := base(11)
		var assign map[ids.MSS]int
		if regions > 1 {
			assign = randomAssignment(rng, b.NumMSS, regions)
		}
		pw := build(t, b, regions, 0, 30, horizon, assign, workload.RingWalk{Cells: cellList(b.NumMSS)})
		pw.RunUntil(horizon + horizon/2)
		s := pw.Summary()
		if s.Ratio != 1.0 || s.Duplicates != 0 {
			t.Fatalf("regions=%d: ratio=%v duplicates=%d, want 1.0 and 0", regions, s.Ratio, s.Duplicates)
		}
		if missing := pw.MissingResults(); len(missing) != 0 {
			t.Fatalf("regions=%d: %d undelivered requests: %v", regions, len(missing), missing[0])
		}
		if s.Violations != 0 {
			t.Fatalf("regions=%d: %d protocol violations", regions, s.Violations)
		}
		if i == 0 {
			ref = s
			continue
		}
		if s.Issued != ref.Issued || s.Delivered != ref.Delivered {
			t.Fatalf("regions=%d: headline (%d/%d) != 1-region headline (%d/%d)",
				regions, s.Issued, s.Delivered, ref.Issued, ref.Delivered)
		}
	}
}

// TestRunUntilResumes verifies the window loop can be driven in slices
// (frames parked past one call's limit must survive to the next).
func TestRunUntilResumes(t *testing.T) {
	b := e1Base(5)
	b.WiredLatency = netsim.Constant(2 * time.Millisecond)
	b.WirelessLatency = netsim.Constant(20 * time.Millisecond)
	const horizon = 3 * time.Second
	whole := build(t, b, 2, 1, 10, horizon, nil, workload.RingWalk{Cells: cellList(b.NumMSS)})
	whole.RunUntil(horizon + horizon/2)
	sliced := build(t, b, 2, 1, 10, horizon, nil, workload.RingWalk{Cells: cellList(b.NumMSS)})
	for _, frac := range []time.Duration{horizon / 3, horizon, horizon + horizon/2} {
		sliced.RunUntil(frac)
	}
	assertRunsEqual(t, whole, sliced, "sliced")
}

func TestConfigValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("mh timers", func() {
		b := e1Base(1)
		b.RequestTimeout = time.Second
		psim.New(psim.Config{Base: b, Regions: 2, Lookahead: 2 * time.Millisecond})
	})
	mustPanic("zero lookahead", func() {
		psim.New(psim.Config{Base: e1Base(1), Regions: 2})
	})
	mustPanic("more regions than stations", func() {
		psim.New(psim.Config{Base: e1Base(1), Regions: 9, Lookahead: 2 * time.Millisecond})
	})
	mustPanic("unsorted script", func() {
		pw := psim.New(psim.Config{Base: e1Base(1), Regions: 2, Lookahead: 2 * time.Millisecond})
		pw.AddMH(1, 1, []psim.MHEvent{
			{At: time.Second, Kind: psim.EvDeactivate},
			{At: time.Millisecond, Kind: psim.EvFlush},
		})
	})
}
