// Property-test harness for the multi-core engine (E14's satellite):
// randomized (partition, workers, seed, bulk) sweeps assert that the
// worker count never changes a byte of output, that
// the bulk construction path is equivalent to the serial AddMH loop,
// that a skewed partition both balances and stays exact, and that the
// worker pool's lifecycle (goroutine hygiene, panic propagation, more
// workers than regions) degrades cleanly. The tiers are miniature so
// the whole file stays inside `make check`'s -race budget.
package psim_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/psim"
	"repro/internal/rdpcore"
	"repro/internal/workload"
)

// propScript is the miniature workload every property trial uses.
func propScript(base rdpcore.Config, horizon time.Duration, mob workload.CellPicker) psim.ScriptConfig {
	return psim.ScriptConfig{
		Mobility: workload.Mobility{
			Picker:            mob,
			Residence:         netsim.Exponential{MeanDelay: 700 * time.Millisecond, Floor: 100 * time.Millisecond},
			InactiveProb:      0.2,
			InactiveDur:       netsim.Exponential{MeanDelay: 500 * time.Millisecond, Floor: 100 * time.Millisecond},
			MoveWhileInactive: 0.3,
		},
		Requests: workload.Requests{
			Interarrival: netsim.Exponential{MeanDelay: 800 * time.Millisecond, Floor: 50 * time.Millisecond},
			Servers:      serverList(base.NumServers),
			PayloadBytes: 32,
		},
		Horizon: horizon,
	}
}

// buildProp constructs a partitioned world with full engine knobs
// (worker count, bulk construction).
func buildProp(base rdpcore.Config, regions, workers int,
	assign map[ids.MSS]int, mhs int, horizon time.Duration, bulk bool) *psim.World {
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
	scfg := propScript(base, horizon, workload.UniformCells{Cells: cells})
	if bulk {
		pw.AddMHs(mhs, func(i int) (ids.MH, ids.MSS, []psim.MHEvent) {
			id := ids.MH(i + 1)
			start, events := psim.BuildScript(base.Seed, id, cells, scfg)
			return id, start, events
		})
	} else {
		for i := 1; i <= mhs; i++ {
			id := ids.MH(i)
			start, events := psim.BuildScript(base.Seed, id, cells, scfg)
			pw.AddMH(id, start, events)
		}
	}
	return pw
}

// TestPropSerialParallelSweep is the randomized determinism sweep:
// random partitions, seeds, worker counts from {2,4,8} and both
// construction paths, each trial compared counter by
// counter against its own serial (Workers=1, AddMH loop) reference.
func TestPropSerialParallelSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const horizon = 3 * time.Second
	workerChoices := []int{2, 4, 8}
	for trial := 0; trial < 4; trial++ {
		seed := int64(1000 + rng.Intn(10000))
		regions := 2 + rng.Intn(3)
		workers := workerChoices[rng.Intn(len(workerChoices))]
		bulk := rng.Intn(2) == 1
		base := e1Base(seed)
		assign := randomAssignment(rng, base.NumMSS, regions)
		label := fmt.Sprintf("trial=%d seed=%d regions=%d workers=%d bulk=%v",
			trial, seed, regions, workers, bulk)

		serial := buildProp(base, regions, 1, assign, 20, horizon, false)
		serial.RunUntil(horizon + horizon/2)
		parallel := buildProp(base, regions, workers, assign, 20, horizon, bulk)
		parallel.RunUntil(horizon + horizon/2)

		assertRunsEqual(t, serial, parallel, label)
		if s := serial.Summary(); s.Issued == 0 {
			t.Fatalf("%s: workload issued nothing", label)
		}
	}
}

// TestPropAddMHsMatchesLoop pins the bulk-construction equivalence in
// isolation: the same world populated by AddMHs and by the serial AddMH
// loop, both run serially, must be byte-identical — construction
// parallelism must not leak into kernel sequence numbers.
func TestPropAddMHsMatchesLoop(t *testing.T) {
	const horizon = 3 * time.Second
	base := e1Base(4242)
	loop := buildProp(base, 3, 1, nil, 24, horizon, false)
	loop.RunUntil(horizon + horizon/2)
	bulk := buildProp(base, 3, 4, nil, 24, horizon, true)
	bulk.RunUntil(horizon + horizon/2)
	assertRunsEqual(t, loop, bulk, "addmhs")
}

// TestSkewedPartitionBalance is the load-imbalance regression: a
// partition where one region starts with ~90% of the hosts must (a)
// show the size-aware dealer giving that region a worker to itself,
// and (b) still produce output identical to the serial run.
func TestSkewedPartitionBalance(t *testing.T) {
	const (
		horizon = 3 * time.Second
		regions = 4
		mhs     = 40
	)
	base := e1Base(99)
	// Station 1 alone is region 0; the rest spread over regions 1..3.
	assign := map[ids.MSS]int{}
	for i := 1; i <= base.NumMSS; i++ {
		if i == 1 {
			assign[ids.MSS(i)] = 0
		} else {
			assign[ids.MSS(i)] = 1 + (i-2)%(regions-1)
		}
	}
	buildSkewed := func(workers int) *psim.World {
		cfg := psim.Config{
			Base:          base,
			Regions:       regions,
			Workers:       workers,
			Lookahead:     2 * time.Millisecond,
			AssignStation: func(id ids.MSS) int { return assign[id] },
		}
		pw := psim.New(cfg)
		cells := cellList(base.NumMSS)
		scfg := propScript(base, horizon, workload.UniformCells{Cells: cells})
		for i := 1; i <= mhs; i++ {
			id := ids.MH(i)
			_, events := psim.BuildScript(base.Seed, id, cells, scfg)
			start := ids.MSS(1) // 90% of hosts crowd region 0's only station
			if i%10 == 0 {
				start = ids.MSS(2)
			}
			pw.AddMH(id, start, events)
		}
		return pw
	}

	parallel := buildSkewed(2)
	weights := parallel.RegionWeights()
	if weights[0] != 1+int64(mhs-mhs/10) {
		t.Fatalf("region 0 weight = %d, want %d", weights[0], 1+mhs-mhs/10)
	}
	plan, loads := parallel.WorkerPlan()
	if len(plan) != 2 {
		t.Fatalf("plan for %d workers: %v", len(plan), plan)
	}
	found := false
	for w, regs := range plan {
		for _, ri := range regs {
			if ri != 0 {
				continue
			}
			found = true
			if len(regs) != 1 {
				t.Errorf("worker %d holds the skewed region plus %v (loads %v)", w, regs, loads)
			}
		}
	}
	if !found {
		t.Fatalf("region 0 missing from plan %v", plan)
	}

	serial := buildSkewed(1)
	serial.RunUntil(horizon + horizon/2)
	parallel.RunUntil(horizon + horizon/2)
	assertRunsEqual(t, serial, parallel, "skewed")
}

// TestPropAggregatedSerialParallel extends the serial==parallel
// property to the E16 aggregated representation, and pins the stronger
// claim behind it: with no GroupTopic the set-backed tables are a pure
// data-structure swap, so a faithful serial run, an aggregated serial
// run and an aggregated parallel run of the same seed must all produce
// identical summaries and region stats.
func TestPropAggregatedSerialParallel(t *testing.T) {
	const horizon = 3 * time.Second
	faithfulBase := e1Base(1234)
	aggBase := faithfulBase
	aggBase.AggregatedState = true

	faithful := buildProp(faithfulBase, 3, 1, nil, 20, horizon, false)
	faithful.RunUntil(horizon + horizon/2)
	serial := buildProp(aggBase, 3, 1, nil, 20, horizon, false)
	serial.RunUntil(horizon + horizon/2)
	parallel := buildProp(aggBase, 3, 4, nil, 20, horizon, true)
	parallel.RunUntil(horizon + horizon/2)

	assertRunsEqual(t, faithful, serial, "aggregated vs faithful representation")
	assertRunsEqual(t, serial, parallel, "aggregated serial vs parallel")
	if s := serial.Summary(); s.Issued == 0 {
		t.Fatal("workload issued nothing")
	}
}

// waitGoroutines polls until the goroutine count drops back to at most
// base (workers unwind asynchronously after pool.stop closes their
// channels).
func waitGoroutines(t *testing.T, base int, label string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("%s: %d goroutines still alive (baseline %d)", label, runtime.NumGoroutine(), base)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPoolGoroutineHygiene checks startPool/stop leaves no workers
// behind, across repeated RunUntil slices.
func TestPoolGoroutineHygiene(t *testing.T) {
	const horizon = 2 * time.Second
	baseline := runtime.NumGoroutine()
	pw := buildProp(e1Base(7), 4, 4, nil, 12, horizon, false)
	for _, d := range []time.Duration{horizon / 2, horizon, horizon + horizon/2} {
		pw.RunUntil(d)
		waitGoroutines(t, baseline, "after RunUntil slice")
	}
}

// TestPoolPanicPropagation drives a region into a panic mid-window (a
// script migrating to a cell no region owns) and requires the parallel
// engine to surface it as a panic naming the region — not deadlock the
// barrier, not leak workers.
func TestPoolPanicPropagation(t *testing.T) {
	const horizon = 2 * time.Second
	baseline := runtime.NumGoroutine()
	base := e1Base(3)
	pw := psim.New(psim.Config{Base: base, Regions: 2, Workers: 2, Lookahead: 2 * time.Millisecond})
	pw.AddMH(1, 1, []psim.MHEvent{
		{At: 100 * time.Millisecond, Kind: psim.EvMigrate, Cell: ids.MSS(999)},
	})
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		pw.RunUntil(horizon)
		done <- nil
	}()
	select {
	case v := <-done:
		if v == nil {
			t.Fatal("RunUntil returned without panicking")
		}
		msg := fmt.Sprint(v)
		if !strings.Contains(msg, "region") || !strings.Contains(msg, "unknown cell") {
			t.Errorf("panic %q does not name the region and cause", msg)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("panic in region deadlocked the barrier")
	}
	waitGoroutines(t, baseline+1, "after region panic") // +1: the test goroutine may still unwind
}

// TestWorkersExceedRegions checks the degenerate pool shapes: more
// workers than regions (clamped) and zero workers (GOMAXPROCS default)
// — both must equal the serial run.
func TestWorkersExceedRegions(t *testing.T) {
	const horizon = 3 * time.Second
	base := e1Base(21)
	serial := buildProp(base, 2, 1, nil, 12, horizon, false)
	serial.RunUntil(horizon + horizon/2)
	for _, tc := range []struct {
		workers int
		label   string
	}{
		{8, "workers=8 regions=2"},
		{0, "workers=default"},
	} {
		pw := buildProp(base, 2, tc.workers, nil, 12, horizon, false)
		pw.RunUntil(horizon + horizon/2)
		assertRunsEqual(t, serial, pw, tc.label)
	}
}
