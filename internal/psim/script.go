package psim

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/workload"
)

// script is one host's event list and progress cursor. Ownership
// follows the host: the owning region executes events, and a
// cross-region migration hands the script over inside the transfer
// frame (the barrier's channel synchronization carries the
// happens-before edge).
type script struct {
	id     ids.MH
	events []MHEvent
	next   int
	// r is the owning region, set by chain. run is fire, bound once when
	// the script is made: every event the script schedules fires it, so
	// an event costs no closure.
	r   *region
	run func()
}

func newScript(id ids.MH, events []MHEvent) *script {
	s := &script{id: id, events: events}
	s.run = s.fire
	return s
}

func (s *script) fire() { s.r.pw.exec(s.r, s) }

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
	s := newScript(id, events)
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
	s.r = r
	r.kernel.DeferAt(sim.Time(s.events[s.next].At), s.run)
}

// exec runs the script's next event in its owning region. What the
// event does is workload.Apply's business; the engine only asks first
// whether it takes the host to a cell another region owns. Such a move
// detaches the host and parks a transfer frame; the script resumes in
// the destination region when the frame fires, one lookahead later —
// the host is radio-silent in transit, exactly like a host crossing
// cells between beacon ranges.
func (pw *World) exec(r *region, s *script) {
	ev := &s.events[s.next]
	s.next++
	if cell, moves := workload.Destination(r.world, s.id, ev); moves {
		dst, ok := pw.stationRegion[cell]
		if !ok {
			panic(fmt.Sprintf("psim: script of %v targets unknown cell %v", s.id, cell))
		}
		if dst != r.idx {
			pw.transfer(r, pw.regions[dst], s, ev)
			return // resumes at attach, in the destination region
		}
	}
	if req := workload.Apply(r.world, s.id, ev); req.Seq != 0 { // crashed hosts refuse issues (E18)
		r.issued = append(r.issued, Issued{MH: s.id, Req: req})
	}
	pw.chain(r, s)
}

// transfer hands the host to region dr, which owns the cell ev moves it
// to. The transfer takes exactly one lookahead of virtual time, so the
// frame can never land inside a window the destination already
// finished. The host attaches in the cell as it left — active hosts
// greet, inactive, disconnected and crashed ones are carried (their
// device state lives on the node and travels with it) — and the event
// then applies there: a no-op for a migrate, the wake for an activate.
func (pw *World) transfer(r, dr *region, s *script, ev *workload.Event) {
	h, active := r.world.DetachMH(s.id)
	f := frame{
		arrival: r.kernel.Now() + pw.lookahead,
		src:     r.idx,
		seq:     r.nextSeq,
		dst:     dr.idx,
		move: func() {
			dr.world.AttachMH(h, ev.Cell, active)
			workload.Apply(dr.world, s.id, ev)
			pw.chain(dr, s)
		},
	}
	r.nextSeq++
	r.outbox = append(r.outbox, f)
}
