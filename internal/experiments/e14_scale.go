package experiments

import (
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/psim"
)

// E14 — multi-core scale: the region engine from E13 pushed to 1024
// cells and one million mobile hosts, sweeping the worker count at a
// fixed partition. Where E13 varies the partition (regions) to show
// partition invariance, E14 fixes the partition per tier and varies
// only Workers — which the engine guarantees cannot change a byte of
// output — so the full Summary (every counter, not just the headline)
// must be identical down the column. What changes is wall-clock time:
// construction (bulk parallel AddMHs), the windows themselves
// (size-aware static dealing), the barrier drain (per-region, on the
// stepping worker), and the post-run merges (sharded Summary, parallel
// MissingResults) all scale with Workers.
//
// The table reports build and run wall-clock separately, the speedup
// over the tier's Workers=1 row, the process peak RSS, and the core
// count the row actually had (runtime.GOMAXPROCS) — on a single-core
// host the sweep still pins the determinism property, but the speedup
// column measures scheduling overhead rather than parallelism.
//
// The topology and workload are E13's (2ms constant wired latency =
// lookahead, ring mobility, Poisson requests); the region count per
// tier keeps each region's wired causal group, and with it the stamp on
// every in-flight wired message (linear in the group size), small
// enough that the 1M tier fits in CI-class RAM.

// E14Tier is one world size of the worker sweep. Regions is fixed per
// tier: E14 varies workers, not the partition.
type E14Tier struct {
	Cells   int
	MHs     int
	Regions int
	Horizon time.Duration
}

// E14Row is one measured configuration.
type E14Row struct {
	E14Tier
	Workers int
	// Cores is runtime.GOMAXPROCS(0) at measurement time — the
	// parallelism the row could actually use.
	Cores int

	Issued      int64
	Delivered   int64
	Ratio       float64
	Duplicates  int64
	CrossFrames int64
	Missing     int
	Violations  int64
	Steps       uint64

	// Build is the wall-clock of world construction + bulk AddMHs; Wall
	// is RunUntil alone.
	Build time.Duration
	Wall  time.Duration
	// Speedup is the tier's Workers=1 Wall over this row's Wall (1.0 for
	// the Workers=1 row itself).
	Speedup float64
	// PeakRSS is the process resident-set high-water mark (bytes) after
	// the row — monotone across rows, so the tier's last row bounds the
	// whole sweep. PeakRSSOK is false where the probe is unavailable
	// (no procfs); the table then prints an explicit "n/a" instead of a
	// lookalike number from a different scale.
	PeakRSS   uint64
	PeakRSSOK bool
	// HeadlineEq reports whether the row's full Summary — every counter,
	// not just issued/delivered — equals the tier's Workers=1 row. The
	// partition is fixed, so equality is exact by the engine's
	// serial==parallel guarantee.
	HeadlineEq bool
}

// E14Run builds and runs one configuration and returns its row plus the
// full Summary (the sweep compares Summaries across worker counts;
// Speedup and HeadlineEq are filled by the sweep).
func E14Run(seed int64, tier E14Tier, workers int) (E14Row, psim.Summary) {
	base := e13Config(seed, tier.Cells)
	cells := make([]ids.MSS, tier.Cells)
	for i := range cells {
		cells[i] = ids.MSS(i + 1)
	}
	servers := make([]ids.Server, base.NumServers)
	for i := range servers {
		servers[i] = ids.Server(i + 1)
	}
	scfg := e13Script(cells, servers, tier.Horizon)

	t0 := time.Now()
	pw := psim.New(psim.Config{
		Base:      base,
		Regions:   tier.Regions,
		Workers:   workers,
		Lookahead: E13Lookahead,
	})
	pw.AddMHs(tier.MHs, func(i int) (ids.MH, ids.MSS, []psim.MHEvent) {
		id := ids.MH(i + 1)
		start, events := psim.BuildScript(seed, id, cells, scfg)
		return id, start, events
	})
	build := time.Since(t0)

	t0 = time.Now()
	pw.RunUntil(tier.Horizon + tier.Horizon/2)
	wall := time.Since(t0)

	rss, rssOK := metrics.PeakRSS()
	s := pw.Summary()
	return E14Row{
		E14Tier:     tier,
		Workers:     workers,
		Cores:       runtime.GOMAXPROCS(0),
		Issued:      s.Issued,
		Delivered:   s.Delivered,
		Ratio:       s.Ratio,
		Duplicates:  s.Duplicates,
		CrossFrames: s.CrossFrames,
		Missing:     len(pw.MissingResults()),
		Violations:  s.Violations,
		Steps:       s.Steps,
		Build:       build,
		Wall:        wall,
		PeakRSS:     rss,
		PeakRSSOK:   rssOK,
	}, s
}

// E14Tiers returns the sweep's world sizes for a scale.
func E14Tiers(sc Scale) []E14Tier {
	if sc.MHs < DefaultScale().MHs {
		return []E14Tier{
			{Cells: 16, MHs: 2000, Regions: 4, Horizon: 4 * time.Second},
		}
	}
	return []E14Tier{
		{Cells: 256, MHs: 100000, Regions: 32, Horizon: 8 * time.Second},
		{Cells: 1024, MHs: 1000000, Regions: 64, Horizon: 4 * time.Second},
	}
}

// E14Workers returns the worker sweep for a scale.
func E14Workers(sc Scale) []int {
	if sc.MHs < DefaultScale().MHs {
		return []int{1, 2}
	}
	return []int{1, 2, 4, 8}
}

// ParseE14Tier parses a "cells:mhs:regions:horizonSec" override
// (rdpbench -e14tier) into a single-tier sweep.
func ParseE14Tier(s string) (E14Tier, bool) {
	parts := strings.Split(s, ":")
	if len(parts) != 4 {
		return E14Tier{}, false
	}
	var n [4]int
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v <= 0 {
			return E14Tier{}, false
		}
		n[i] = v
	}
	return E14Tier{
		Cells:   n[0],
		MHs:     n[1],
		Regions: n[2],
		Horizon: time.Duration(n[3]) * time.Second,
	}, true
}

// E14Scale runs the full sweep: every tier at every worker count. tiers
// nil means E14Tiers(sc); workers nil means E14Workers(sc). Each tier's
// first row is the speedup and equality baseline: HeadlineEq on every
// other row asserts the full Summary equal to it.
func E14Scale(seed int64, sc Scale, tiers []E14Tier, workers []int) []E14Row {
	if tiers == nil {
		tiers = E14Tiers(sc)
	}
	if workers == nil {
		workers = E14Workers(sc)
	}
	var out []E14Row
	for _, tier := range tiers {
		var base psim.Summary
		var baseWall time.Duration
		for i, w := range workers {
			row, s := E14Run(seed, tier, w)
			if i == 0 {
				row.Speedup = 1
				row.HeadlineEq = true
				base, baseWall = s, row.Wall
			} else {
				row.Speedup = float64(baseWall) / float64(row.Wall)
				row.HeadlineEq = s == base
			}
			out = append(out, row)
		}
	}
	return out
}
