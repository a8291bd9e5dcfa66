package psim

import (
	"fmt"
	"time"

	"repro/internal/ids"
	"repro/internal/sim"
)

// EventKind enumerates scripted mobile-host actions.
type EventKind uint8

const (
	// EvMigrate moves the host to Cell. Active hosts greet the new
	// station (starting a hand-off); inactive hosts are carried silently.
	EvMigrate EventKind = iota + 1
	// EvDeactivate turns the host inactive in place.
	EvDeactivate
	// EvActivate wakes the host in Cell — the cell it was carried to
	// while inactive (equal to its current cell when it did not move).
	EvActivate
	// EvRequest issues a service request to Server with Payload.
	EvRequest
	// EvDisconnect drops the host off the radio in place (E17):
	// requests it issues while disconnected journal into the offline
	// queue instead of reaching the station.
	EvDisconnect
	// EvReconnect brings the host back on the air, re-registering and
	// replaying its offline queue in issue order.
	EvReconnect
	// EvFlush is the end-of-run delivery sweep: an inactive host wakes
	// (greeting its station), an active host re-greets in place. Either
	// way the station announces the host's location to its proxy, which
	// re-forwards any undelivered result — the mechanism behind the
	// delivery-ratio-1.0 guarantee at the measurement horizon.
	EvFlush
	// EvCrash power-fails the host in place (E18): volatile protocol
	// state is lost and only the incarnation counter and offline journal
	// survive in stable store.
	EvCrash
	// EvRestart reboots a crashed host under its next incarnation; the
	// reboot registration lets lease GC scrub the dead incarnation's
	// proxy state.
	EvRestart
)

// MHEvent is one scripted action. Scripts are generated up front from
// per-host seeds, so the workload — every migration instant, every
// request identifier — is a pure function of the master seed,
// independent of the partition and of the worker count.
type MHEvent struct {
	At      time.Duration
	Kind    EventKind
	Cell    ids.MSS
	Server  ids.Server
	Payload []byte
}

// script is one host's event list and progress cursor. Ownership
// follows the host: the owning region executes events, and a
// cross-region migration hands the script over inside the transfer
// frame (the barrier's channel synchronization carries the
// happens-before edge).
type script struct {
	id     ids.MH
	events []MHEvent
	next   int
}

// AddMH creates a mobile host in the start cell with the given script.
// Call before RunUntil; events must be sorted by At.
func (pw *World) AddMH(id ids.MH, start ids.MSS, events []MHEvent) {
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			panic(fmt.Sprintf("psim: script of %v not sorted at index %d", id, i))
		}
	}
	if _, dup := pw.scripts[id]; dup {
		panic(fmt.Sprintf("psim: duplicate MH %v", id))
	}
	ridx, ok := pw.stationRegion[start]
	if !ok {
		panic(fmt.Sprintf("psim: unknown start cell %v", start))
	}
	r := pw.regions[ridx]
	r.world.AddMH(id, start)
	s := &script{id: id, events: events}
	pw.scripts[id] = s
	pw.chain(r, s)
}

// chain schedules the script's next event on the owning region's
// kernel. An event whose instant already passed (a transfer landed
// after it) runs at the current instant instead.
func (pw *World) chain(r *region, s *script) {
	if s.next >= len(s.events) {
		return
	}
	r.kernel.DeferAt(sim.Time(s.events[s.next].At), func() { pw.exec(r, s) })
}

// exec runs the script's next event in its owning region. A
// cross-region move detaches the host and parks a transfer frame; the
// script resumes in the destination region when the frame fires, one
// lookahead later — the host is radio-silent in transit, exactly like a
// host crossing cells between beacon ranges.
func (pw *World) exec(r *region, s *script) {
	ev := s.events[s.next]
	s.next++
	switch ev.Kind {
	case EvRequest:
		h := r.world.MHs[s.id]
		req := h.IssueRequest(ev.Server, ev.Payload)
		if req.Seq != 0 { // crashed hosts refuse issues (E18)
			r.issued = append(r.issued, Issued{MH: s.id, Req: req})
		}
	case EvDeactivate:
		r.world.SetActive(s.id, false)
	case EvDisconnect:
		r.world.Disconnect(s.id)
	case EvReconnect:
		r.world.Reconnect(s.id)
	case EvCrash:
		r.world.CrashMH(s.id)
	case EvRestart:
		r.world.RestartMH(s.id)
	case EvFlush:
		if r.world.IsActive(s.id) {
			r.world.Refresh(s.id)
		} else {
			r.world.SetActive(s.id, true)
		}
	case EvMigrate, EvActivate:
		if ev.Kind == EvMigrate && (r.world.IsDisconnected(s.id) || r.world.IsCrashed(s.id)) {
			// Out of coverage or powered off: the move is suppressed, as
			// the serial E17/E18 drivers suppress it, so the regions replay
			// the serial run. (A transfer itself would be safe: the host's
			// disconnected and crashed state and its incarnation word
			// live on the node and travel with it.)
			break
		}
		dst, ok := pw.stationRegion[ev.Cell]
		if !ok {
			panic(fmt.Sprintf("psim: script of %v targets unknown cell %v", s.id, ev.Cell))
		}
		if dst != r.idx {
			pw.transfer(r, s, ev.Cell, ev.Kind == EvActivate)
			return // resumes at attach, in the destination region
		}
		if ev.Kind == EvMigrate {
			r.world.Migrate(s.id, ev.Cell)
		} else {
			if r.world.Location(s.id) != ev.Cell {
				// Carried to a new cell while inactive: relocate
				// silently, then wake (the activation greet names the
				// old respMss, starting the hand-off; §2).
				r.world.Migrate(s.id, ev.Cell)
			}
			r.world.SetActive(s.id, true)
		}
	default:
		panic(fmt.Sprintf("psim: script of %v has unknown event kind %d", s.id, ev.Kind))
	}
	pw.chain(r, s)
}

// transfer hands the host to the region owning cell. The transfer takes
// exactly one lookahead of virtual time, so the frame can never land
// inside a window the destination already finished. activate marks an
// EvActivate move: the host attaches inactive and wakes on arrival.
func (pw *World) transfer(r *region, s *script, cell ids.MSS, activate bool) {
	h, active := r.world.DetachMH(s.id)
	dst := pw.stationRegion[cell]
	dr := pw.regions[dst]
	f := frame{
		arrival: r.kernel.Now() + pw.lookahead,
		src:     r.idx,
		seq:     r.nextSeq,
		dst:     dst,
		fire: func() {
			dr.world.AttachMH(h, cell, active)
			if activate && !active {
				dr.world.SetActive(s.id, true)
			}
			pw.chain(dr, s)
		},
	}
	r.nextSeq++
	r.outbox = append(r.outbox, f)
}
