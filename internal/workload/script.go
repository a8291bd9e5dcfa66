package workload

import (
	"fmt"
	"time"

	"repro/internal/ids"
	"repro/internal/sim"
)

// Script describes one mobile host's life; Generate turns it into the
// sorted event list. Parts left zero are neither drawn nor emitted, so a
// description names exactly the RNG draws it costs.
type Script struct {
	// Cells, when set, are the cells the start cell is drawn from
	// (uniformly — the stream's first draw). Empty: the host starts in
	// Start and nothing is drawn.
	Cells []ids.MSS
	Start ids.MSS
	// Mobility and Requests are the itinerary and arrival shapes, both
	// generated over [0, Horizon), in that order. A Mobility without a
	// Picker is a static host; Requests without an Interarrival, a
	// silent one.
	Mobility Mobility
	Requests Requests
	Horizon  time.Duration
	// WakeAt and FlushAt are the instants of the two end-of-run sweeps
	// (EvWake, EvFlush); zero emits none. A sweep must leave enough
	// drain time before the run's deadline for the re-forwards it
	// triggers.
	WakeAt, FlushAt time.Duration
}

// Generate draws one host's life from rng — start cell, itinerary,
// request arrivals, in that order — and returns it merged and sorted,
// sweeps last.
func (s Script) Generate(rng *sim.RNG) (start ids.MSS, events []Event) {
	start = s.Start
	if len(s.Cells) > 0 {
		start = s.Cells[rng.Intn(len(s.Cells))]
	}
	var itin, reqs []Event
	if s.Mobility.Picker != nil {
		itin = Itinerary(rng, s.Mobility, start, s.Horizon)
	}
	if s.Requests.Interarrival != nil {
		reqs = Schedule(rng, s.Requests, s.Horizon)
	}
	sweeps := make([]Event, 0, 2)
	if s.WakeAt != 0 {
		sweeps = append(sweeps, Event{At: s.WakeAt, Kind: EvWake})
	}
	if s.FlushAt != 0 {
		sweeps = append(sweeps, Event{At: s.FlushAt, Kind: EvFlush})
	}
	// Exact capacity: a large population keeps every script live.
	events = merge(make([]Event, 0, len(itin)+len(reqs)+len(sweeps)), itin, reqs)
	return start, append(events, sweeps...)
}

// Merge combines two sorted scripts into one. The merge is stable with a
// first on ties, which is the order a serial driver gets by scheduling
// all of a before any of b.
func Merge(a, b []Event) []Event {
	return merge(make([]Event, 0, len(a)+len(b)), a, b)
}

func merge(out, a, b []Event) []Event {
	for len(a) > 0 && len(b) > 0 {
		if a[0].At <= b[0].At {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// System is what a script acts on: the host-lifecycle surface every
// protocol world has (RDP, and the §4 Mobile IP and I-TCP baselines).
type System interface {
	// Migrate moves the host to cell; a no-op when it is already there.
	Migrate(id ids.MH, cell ids.MSS)
	SetActive(id ids.MH, active bool)
	// IssueRequest returns the zero RequestID when the host refused to
	// issue (a crashed host runs no code).
	IssueRequest(id ids.MH, server ids.Server, payload []byte) ids.RequestID
}

// FaultSystem is the surface the coverage, crash and flush kinds need;
// only the RDP world has it.
type FaultSystem interface {
	System
	IsActive(id ids.MH) bool
	IsDisconnected(id ids.MH) bool
	Refresh(id ids.MH)
	Disconnect(id ids.MH)
	Reconnect(id ids.MH)
	CrashMH(id ids.MH)
	RestartMH(id ids.MH)
}

// Destination reports the cell ev would take the host to, if Apply would
// move it at all — what a partitioned engine must know before it lets
// Apply run, because the cell may belong to another partition. A host
// out of coverage does not change cells (E17): its migrate is dropped.
func Destination(sys System, id ids.MH, ev *Event) (cell ids.MSS, moves bool) {
	switch ev.Kind {
	case EvMigrate:
		if f, ok := sys.(FaultSystem); ok && f.IsDisconnected(id) {
			return 0, false
		}
		return ev.Cell, true
	case EvActivate:
		return ev.Cell, true
	}
	return 0, false
}

// Apply performs one event on a system and returns the request it
// issued, if any. It is the single definition of what the kinds mean.
func Apply(sys System, id ids.MH, ev *Event) ids.RequestID {
	switch ev.Kind {
	case EvRequest:
		return sys.IssueRequest(id, ev.Server, ev.Payload)
	case EvMigrate:
		if cell, ok := Destination(sys, id, ev); ok {
			sys.Migrate(id, cell)
		}
	case EvDeactivate:
		sys.SetActive(id, false)
	case EvActivate:
		// Carried to a new cell while inactive: relocate silently, then
		// wake (the activation greet names the old respMss, starting the
		// hand-off; §2).
		sys.Migrate(id, ev.Cell)
		sys.SetActive(id, true)
	case EvWake:
		sys.SetActive(id, true)
	case EvDisconnect:
		faults(sys, ev).Disconnect(id)
	case EvReconnect:
		faults(sys, ev).Reconnect(id)
	case EvCrash:
		faults(sys, ev).CrashMH(id)
	case EvRestart:
		faults(sys, ev).RestartMH(id)
	case EvFlush:
		if f := faults(sys, ev); f.IsActive(id) {
			f.Refresh(id)
		} else {
			f.SetActive(id, true)
		}
	default:
		panic(fmt.Sprintf("workload: script of %v has unknown event kind %d", id, ev.Kind))
	}
	return ids.RequestID{}
}

func faults(sys System, ev *Event) FaultSystem {
	f, ok := sys.(FaultSystem)
	if !ok {
		panic(fmt.Sprintf("workload: %T has no %v", sys, ev.Kind))
	}
	return f
}

// Issued records one request a script issued, for post-run verification.
type Issued struct {
	MH  ids.MH
	Req ids.RequestID
}

// Player is the serial driver: it schedules whole scripts up front on
// one system's scheduler and keeps the ledger of the requests they
// issue. Kernel insertion order is part of the contract — hosts in the
// order given, each host's events in script order — because it breaks
// same-instant ties.
type Player struct {
	Sched  sim.Scheduler
	Sys    System
	Ledger []Issued
}

// Schedule registers every event of one host's script.
func (p *Player) Schedule(id ids.MH, script []Event) {
	for i := range script {
		ev := &script[i]
		p.Sched.Defer(ev.At, func() {
			if req := Apply(p.Sys, id, ev); req.Seq != 0 {
				p.Ledger = append(p.Ledger, Issued{MH: id, Req: req})
			}
		})
	}
}

// Play runs a population of hosts 1..n: for each in turn it forks the
// host's RNG off the scheduler's, asks life for the start cell and
// script (Script.Generate, or a function composing several), adds the
// host and schedules the script. The per-host order — fork, life's
// draws, add, schedule — is the reproducibility contract.
func (p *Player) Play(n int, life func(rng *sim.RNG) (ids.MSS, []Event), add func(ids.MH, ids.MSS)) {
	for i := 1; i <= n; i++ {
		start, script := life(p.Sched.RNG().Fork())
		add(ids.MH(i), start)
		p.Schedule(ids.MH(i), script)
	}
}
