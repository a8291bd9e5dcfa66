// Package workload generates the mobility and request patterns driving
// the experiments: cell itineraries (which cell an MH occupies when, and
// when it is inactive) and request arrival schedules.
//
// The paper's own evaluation plan (§5) was to test RDP "concerning its
// efficiency with respect to several patterns of mobility, queries and
// subscriptions"; this package provides those patterns. Everything is a
// pure function of a seeded RNG, keeping experiment sweeps reproducible.
package workload

import (
	"fmt"
	"time"

	"repro/internal/ids"
	"repro/internal/sim"
)

// Sampler draws durations from a distribution. The netsim latency models
// (Constant, Uniform, Exponential) satisfy it.
type Sampler interface {
	Sample(rng *sim.RNG) time.Duration
	Mean() time.Duration
}

// CellPicker chooses the next cell of a migration.
type CellPicker interface {
	// Next returns the cell an MH migrates to from cur. Implementations
	// must return a cell different from cur when more than one cell
	// exists.
	Next(rng *sim.RNG, cur ids.MSS) ids.MSS
}

// UniformCells migrates to any other cell with equal probability —
// the "random communication" pattern of the authors' prototype (§5).
type UniformCells struct {
	Cells []ids.MSS
}

// Next picks uniformly among the other cells.
func (u UniformCells) Next(rng *sim.RNG, cur ids.MSS) ids.MSS {
	if len(u.Cells) <= 1 {
		return cur
	}
	for {
		c := u.Cells[rng.Intn(len(u.Cells))]
		if c != cur {
			return c
		}
	}
}

// RingWalk moves to an adjacent cell on a ring of cells, modelling
// geographic adjacency (a vehicle crossing neighbouring cells).
type RingWalk struct {
	Cells []ids.MSS
}

// Next moves one step left or right on the ring.
func (r RingWalk) Next(rng *sim.RNG, cur ids.MSS) ids.MSS {
	n := len(r.Cells)
	if n <= 1 {
		return cur
	}
	idx := 0
	for i, c := range r.Cells {
		if c == cur {
			idx = i
			break
		}
	}
	if rng.Prob(0.5) {
		return r.Cells[(idx+1)%n]
	}
	return r.Cells[(idx+n-1)%n]
}

// PingPong oscillates between two cells — the adversarial pattern that
// maximizes hand-off churn.
type PingPong struct {
	A, B ids.MSS
}

// Next returns the other cell.
func (p PingPong) Next(_ *sim.RNG, cur ids.MSS) ids.MSS {
	if cur == p.A {
		return p.B
	}
	return p.A
}

// Markov picks the next cell from a row-stochastic transition matrix
// over Cells. Self-transitions are re-drawn (a migration always changes
// cells); rows that would only self-transition fall back to uniform.
type Markov struct {
	Cells []ids.MSS
	P     [][]float64
}

// Validate checks matrix shape and row sums.
func (m Markov) Validate() error {
	if len(m.P) != len(m.Cells) {
		return fmt.Errorf("workload: Markov P has %d rows for %d cells", len(m.P), len(m.Cells))
	}
	for i, row := range m.P {
		if len(row) != len(m.Cells) {
			return fmt.Errorf("workload: Markov row %d has %d entries for %d cells", i, len(row), len(m.Cells))
		}
		sum := 0.0
		for _, p := range row {
			if p < 0 {
				return fmt.Errorf("workload: Markov row %d has negative probability", i)
			}
			sum += p
		}
		if sum < 0.999 || sum > 1.001 {
			return fmt.Errorf("workload: Markov row %d sums to %g", i, sum)
		}
	}
	return nil
}

// Next draws from the row of cur.
func (m Markov) Next(rng *sim.RNG, cur ids.MSS) ids.MSS {
	row := -1
	for i, c := range m.Cells {
		if c == cur {
			row = i
			break
		}
	}
	if row == -1 {
		return UniformCells{Cells: m.Cells}.Next(rng, cur)
	}
	for attempt := 0; attempt < 16; attempt++ {
		x := rng.Float64()
		acc := 0.0
		for j, p := range m.P[row] {
			acc += p
			if x < acc {
				if m.Cells[j] == cur {
					break // self-transition: re-draw
				}
				return m.Cells[j]
			}
		}
	}
	return UniformCells{Cells: m.Cells}.Next(rng, cur)
}

// EventKind classifies the events of a mobile host's life.
type EventKind uint8

// Event kinds. A script is a sorted []Event; Apply is the one place that
// says what each kind does to a system.
const (
	// EvMigrate moves the host to Cell. Active hosts greet the new
	// station (starting a hand-off); inactive and crashed hosts are
	// carried silently; a host out of coverage does not move.
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
	// EvFlush is the partitioned engine's end-of-run delivery sweep: an
	// inactive host wakes (greeting its station), an active host
	// re-greets in place. Either way the station announces the host's
	// location to its proxy, which re-forwards any undelivered result.
	EvFlush
	// EvCrash power-fails the host in place (E18): volatile protocol
	// state is lost and only the incarnation counter and offline journal
	// survive in stable store.
	EvCrash
	// EvRestart reboots a crashed host under its next incarnation.
	EvRestart
	// EvWake is the serial experiments' end-of-run sweep: a host still
	// asleep at the horizon wakes where it is; an awake host is left
	// alone (no extra greet enters the counted protocol traffic).
	EvWake
)

var kindNames = [...]string{
	EvMigrate: "migrate", EvDeactivate: "deactivate", EvActivate: "activate",
	EvRequest: "request", EvDisconnect: "disconnect", EvReconnect: "reconnect",
	EvFlush: "flush", EvCrash: "crash", EvRestart: "restart", EvWake: "wake",
}

// String names the event kind.
func (k EventKind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one step of a mobile host's life. Scripts are generated up
// front from per-host RNG streams, so a workload — every migration
// instant, every request — is a pure function of its seed.
type Event struct {
	At      time.Duration // offset from the start of the run
	Kind    EventKind
	Cell    ids.MSS    // EvMigrate, EvActivate: destination cell
	Server  ids.Server // EvRequest
	Payload []byte     // EvRequest
}

// Arrival is a generated request: an Event of kind EvRequest.
type Arrival = Event

// Mobility parameterizes itinerary generation for one MH.
type Mobility struct {
	// Picker chooses destination cells.
	Picker CellPicker
	// Residence samples the time spent in a cell before the next event.
	Residence Sampler
	// InactiveProb is the probability that, at the end of a residence
	// period, the MH goes inactive (power save) instead of migrating.
	InactiveProb float64
	// InactiveDur samples the length of inactivity periods. While
	// inactive the MH may still be carried to a new cell (it wakes up
	// elsewhere) with probability MoveWhileInactive.
	InactiveDur       Sampler
	MoveWhileInactive float64
}

// Itinerary generates the mobility events of one MH starting in cell
// start, covering [0, horizon). The MH begins active.
func Itinerary(rng *sim.RNG, cfg Mobility, start ids.MSS, horizon time.Duration) []Event {
	if cfg.Picker == nil || cfg.Residence == nil {
		panic("workload: Mobility requires Picker and Residence")
	}
	var (
		events []Event
		now    time.Duration
		cell   = start
	)
	for {
		now += cfg.Residence.Sample(rng)
		if now >= horizon {
			return events
		}
		if cfg.InactiveDur != nil && rng.Prob(cfg.InactiveProb) {
			events = append(events, Event{At: now, Kind: EvDeactivate, Cell: cell})
			now += cfg.InactiveDur.Sample(rng)
			if rng.Prob(cfg.MoveWhileInactive) {
				cell = cfg.Picker.Next(rng, cell)
			}
			if now >= horizon {
				return events
			}
			events = append(events, Event{At: now, Kind: EvActivate, Cell: cell})
			continue
		}
		cell = cfg.Picker.Next(rng, cell)
		events = append(events, Event{At: now, Kind: EvMigrate, Cell: cell})
	}
}

// Requests parameterizes request generation for one MH.
type Requests struct {
	// Interarrival samples gaps between consecutive requests
	// (Exponential yields a Poisson process).
	Interarrival Sampler
	// Servers are the candidate targets; each request picks uniformly.
	Servers []ids.Server
	// PayloadBytes sizes the synthetic request body.
	PayloadBytes int
}

// Schedule generates the request arrivals of one MH over [0, horizon).
func Schedule(rng *sim.RNG, cfg Requests, horizon time.Duration) []Arrival {
	if cfg.Interarrival == nil || len(cfg.Servers) == 0 {
		panic("workload: Requests requires Interarrival and Servers")
	}
	var (
		out []Arrival
		now time.Duration
	)
	for {
		gap := cfg.Interarrival.Sample(rng)
		if gap <= 0 {
			gap = time.Nanosecond // guarantee progress
		}
		now += gap
		if now >= horizon {
			return out
		}
		payload := make([]byte, cfg.PayloadBytes)
		for i := range payload {
			payload[i] = byte(rng.Intn(256))
		}
		out = append(out, Arrival{
			At:      now,
			Kind:    EvRequest,
			Server:  cfg.Servers[rng.Intn(len(cfg.Servers))],
			Payload: payload,
		})
	}
}

// GridWalk moves on a Width×Height Manhattan grid of cells with
// 4-neighborhood steps — the city-street mobility of the SIDAM scenario.
// Cells is indexed row-major: Cells[y*Width+x].
type GridWalk struct {
	Cells  []ids.MSS
	Width  int
	Height int
}

// Validate checks the grid shape.
func (g GridWalk) Validate() error {
	if g.Width < 1 || g.Height < 1 {
		return fmt.Errorf("workload: GridWalk %dx%d is degenerate", g.Width, g.Height)
	}
	if len(g.Cells) != g.Width*g.Height {
		return fmt.Errorf("workload: GridWalk has %d cells for a %dx%d grid", len(g.Cells), g.Width, g.Height)
	}
	return nil
}

// Next moves one step up/down/left/right, staying on the grid.
func (g GridWalk) Next(rng *sim.RNG, cur ids.MSS) ids.MSS {
	if g.Width*g.Height <= 1 {
		return cur
	}
	idx := 0
	for i, c := range g.Cells {
		if c == cur {
			idx = i
			break
		}
	}
	x, y := idx%g.Width, idx/g.Width
	type step struct{ dx, dy int }
	var options []step
	if x > 0 {
		options = append(options, step{-1, 0})
	}
	if x < g.Width-1 {
		options = append(options, step{1, 0})
	}
	if y > 0 {
		options = append(options, step{0, -1})
	}
	if y < g.Height-1 {
		options = append(options, step{0, 1})
	}
	s := options[rng.Intn(len(options))]
	return g.Cells[(y+s.dy)*g.Width+(x+s.dx)]
}
