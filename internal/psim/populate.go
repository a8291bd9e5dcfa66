package psim

import (
	"fmt"

	"repro/internal/ids"
)

// AddMHs bulk-creates n mobile hosts from a generator. gen(i) returns
// host i's identity, start cell and script; it must be a pure function
// of i (the bulk path calls it from multiple goroutines, in no
// particular order). The result is byte-identical to calling AddMH in a
// loop for i = 0..n-1: generation is embarrassingly parallel, the
// shared index fills serially, and each region attaches its hosts in
// ascending i — the same per-kernel registration order the serial loop
// produces, which is what pins the kernel sequence numbers and with
// them the whole run.
//
// Building a million-host world was the dominant serial cost of the
// large E14 tiers; script generation (per-host RNG streams) and
// per-region attachment both scale with Workers.
func (pw *World) AddMHs(n int, gen func(i int) (ids.MH, ids.MSS, []MHEvent)) {
	type pending struct {
		id     ids.MH
		start  ids.MSS
		events []MHEvent
	}
	hosts := make([]pending, n)

	// Phase 1 — parallel: generate and validate every script. Each index
	// writes only its own slot.
	pw.parfor(n, func(i int) {
		id, start, events := gen(i)
		for j := 1; j < len(events); j++ {
			if events[j].At < events[j-1].At {
				panic(fmt.Sprintf("psim: script of %v not sorted at index %d", id, j))
			}
		}
		hosts[i] = pending{id: id, start: start, events: events}
	})

	// Phase 2 — serial: dedup against the shared script index, record
	// the scripts, and group hosts by owning region in ascending i.
	perRegion := make([][]int, len(pw.regions))
	for i := range hosts {
		h := &hosts[i]
		if _, dup := pw.scripts[h.id]; dup {
			panic(fmt.Sprintf("psim: duplicate MH %v", h.id))
		}
		ridx, ok := pw.stationRegion[h.start]
		if !ok {
			panic(fmt.Sprintf("psim: unknown start cell %v", h.start))
		}
		pw.scripts[h.id] = newScript(h.id, h.events)
		perRegion[ridx] = append(perRegion[ridx], i)
	}

	// Phase 3 — parallel over regions: attach each region's hosts in
	// ascending i. Regions are fully independent; within a region the
	// ascending order reproduces the serial loop's kernel registration
	// order exactly.
	pw.parfor(len(pw.regions), func(ridx int) {
		r := pw.regions[ridx]
		for _, i := range perRegion[ridx] {
			h := &hosts[i]
			r.world.AddMH(h.id, h.start)
			pw.chain(r, pw.scripts[h.id])
		}
	})
}
