package workload

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func cells(n int) []ids.MSS {
	out := make([]ids.MSS, n)
	for i := range out {
		out[i] = ids.MSS(i + 1)
	}
	return out
}

func TestUniformCellsNeverSelf(t *testing.T) {
	rng := sim.NewRNG(1)
	p := UniformCells{Cells: cells(5)}
	for i := 0; i < 1000; i++ {
		cur := ids.MSS(rng.Intn(5) + 1)
		if next := p.Next(rng, cur); next == cur {
			t.Fatal("UniformCells returned the current cell")
		}
	}
}

func TestUniformCellsSingleCell(t *testing.T) {
	rng := sim.NewRNG(1)
	p := UniformCells{Cells: cells(1)}
	if got := p.Next(rng, 1); got != 1 {
		t.Errorf("single-cell Next = %v, want 1", got)
	}
}

func TestRingWalkAdjacency(t *testing.T) {
	rng := sim.NewRNG(2)
	p := RingWalk{Cells: cells(6)}
	for i := 0; i < 1000; i++ {
		cur := ids.MSS(rng.Intn(6) + 1)
		next := p.Next(rng, cur)
		d := int(next) - int(cur)
		if d < 0 {
			d = -d
		}
		if d != 1 && d != 5 { // neighbour or ring wrap
			t.Fatalf("RingWalk jumped from %v to %v", cur, next)
		}
	}
}

func TestPingPong(t *testing.T) {
	p := PingPong{A: 1, B: 2}
	if p.Next(nil, 1) != 2 || p.Next(nil, 2) != 1 {
		t.Error("PingPong must alternate")
	}
}

func TestMarkovValidate(t *testing.T) {
	m := Markov{Cells: cells(2), P: [][]float64{{0, 1}, {1, 0}}}
	if err := m.Validate(); err != nil {
		t.Errorf("valid matrix rejected: %v", err)
	}
	bad := Markov{Cells: cells(2), P: [][]float64{{0.5, 0.2}, {1, 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("row not summing to 1 accepted")
	}
	neg := Markov{Cells: cells(2), P: [][]float64{{-1, 2}, {1, 0}}}
	if err := neg.Validate(); err == nil {
		t.Error("negative probability accepted")
	}
	shape := Markov{Cells: cells(2), P: [][]float64{{1}}}
	if err := shape.Validate(); err == nil {
		t.Error("bad shape accepted")
	}
}

func TestMarkovFollowsMatrix(t *testing.T) {
	rng := sim.NewRNG(3)
	// From cell 1, always go to cell 3.
	m := Markov{Cells: cells(3), P: [][]float64{
		{0, 0, 1},
		{1, 0, 0},
		{0, 1, 0},
	}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if got := m.Next(rng, 1); got != 3 {
			t.Fatalf("Markov from cell1 = %v, want mss3", got)
		}
	}
}

func TestMarkovNeverSelfTransitions(t *testing.T) {
	rng := sim.NewRNG(4)
	// Heavy self-loop: must still move.
	m := Markov{Cells: cells(3), P: [][]float64{
		{0.9, 0.05, 0.05},
		{0.05, 0.9, 0.05},
		{0.05, 0.05, 0.9},
	}}
	for i := 0; i < 500; i++ {
		cur := ids.MSS(rng.Intn(3) + 1)
		if got := m.Next(rng, cur); got == cur {
			t.Fatal("Markov migration returned the current cell")
		}
	}
}

func TestMarkovUnknownCellFallsBack(t *testing.T) {
	rng := sim.NewRNG(5)
	m := Markov{Cells: cells(3), P: [][]float64{{0, 1, 0}, {1, 0, 0}, {1, 0, 0}}}
	if got := m.Next(rng, 99); got == 99 {
		t.Error("unknown cell should fall back to uniform pick")
	}
}

func TestItineraryWithinHorizonAndOrdered(t *testing.T) {
	rng := sim.NewRNG(6)
	cfg := Mobility{
		Picker:            UniformCells{Cells: cells(4)},
		Residence:         netsim.Exponential{MeanDelay: 10 * time.Second},
		InactiveProb:      0.3,
		InactiveDur:       netsim.Exponential{MeanDelay: 20 * time.Second},
		MoveWhileInactive: 0.5,
	}
	ev := Itinerary(rng, cfg, 1, 10*time.Minute)
	if len(ev) == 0 {
		t.Fatal("no events generated")
	}
	var last time.Duration
	for i, e := range ev {
		if e.At < last {
			t.Fatalf("event %d at %v before previous %v", i, e.At, last)
		}
		last = e.At
		if e.At >= 10*time.Minute {
			t.Fatalf("event %d at %v beyond horizon", i, e.At)
		}
	}
}

func TestItineraryActivityAlternates(t *testing.T) {
	rng := sim.NewRNG(7)
	cfg := Mobility{
		Picker:       UniformCells{Cells: cells(3)},
		Residence:    netsim.Constant(5 * time.Second),
		InactiveProb: 1.0, // always deactivate
		InactiveDur:  netsim.Constant(2 * time.Second),
	}
	ev := Itinerary(rng, cfg, 1, time.Minute)
	active := true
	for i, e := range ev {
		switch e.Kind {
		case EvDeactivate:
			if !active {
				t.Fatalf("event %d: deactivate while inactive", i)
			}
			active = false
		case EvActivate:
			if active {
				t.Fatalf("event %d: activate while active", i)
			}
			active = true
		case EvMigrate:
			if !active {
				t.Fatalf("event %d: migrate while inactive", i)
			}
		}
	}
}

func TestItineraryMigrationTargetsDiffer(t *testing.T) {
	rng := sim.NewRNG(8)
	cfg := Mobility{
		Picker:    RingWalk{Cells: cells(5)},
		Residence: netsim.Constant(time.Second),
	}
	ev := Itinerary(rng, cfg, 1, time.Minute)
	cur := ids.MSS(1)
	for i, e := range ev {
		if e.Kind != EvMigrate {
			continue
		}
		if e.Cell == cur {
			t.Fatalf("event %d migrates to the current cell %v", i, cur)
		}
		cur = e.Cell
	}
}

func TestItineraryDeterministic(t *testing.T) {
	cfg := Mobility{
		Picker:       UniformCells{Cells: cells(4)},
		Residence:    netsim.Exponential{MeanDelay: 3 * time.Second},
		InactiveProb: 0.2,
		InactiveDur:  netsim.Constant(time.Second),
	}
	a := Itinerary(sim.NewRNG(9), cfg, 1, time.Minute)
	b := Itinerary(sim.NewRNG(9), cfg, 1, time.Minute)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("itineraries diverge:\n%+v\n%+v", a, b)
	}
}

func TestItineraryPanicsWithoutPicker(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("missing Picker must panic")
		}
	}()
	Itinerary(sim.NewRNG(1), Mobility{Residence: netsim.Constant(time.Second)}, 1, time.Minute)
}

func TestSchedulePoissonRate(t *testing.T) {
	rng := sim.NewRNG(10)
	cfg := Requests{
		Interarrival: netsim.Exponential{MeanDelay: time.Second},
		Servers:      []ids.Server{1, 2},
		PayloadBytes: 16,
	}
	horizon := 30 * time.Minute
	arr := Schedule(rng, cfg, horizon)
	want := float64(horizon) / float64(time.Second)
	got := float64(len(arr))
	if got < 0.9*want || got > 1.1*want {
		t.Errorf("arrivals = %v, want ~%v", got, want)
	}
	for i, a := range arr {
		if a.At >= horizon {
			t.Fatalf("arrival %d beyond horizon", i)
		}
		if len(a.Payload) != 16 {
			t.Fatalf("arrival %d payload %d bytes, want 16", i, len(a.Payload))
		}
		if a.Server != 1 && a.Server != 2 {
			t.Fatalf("arrival %d server %v not in candidate set", i, a.Server)
		}
		if i > 0 && a.At < arr[i-1].At {
			t.Fatalf("arrival %d out of order", i)
		}
	}
}

func TestScheduleZeroGapProgress(t *testing.T) {
	rng := sim.NewRNG(11)
	cfg := Requests{
		Interarrival: netsim.Constant(0), // degenerate: zero gap
		Servers:      []ids.Server{1},
	}
	arr := Schedule(rng, cfg, 10*time.Nanosecond)
	if len(arr) == 0 || len(arr) > 10 {
		t.Fatalf("zero-gap schedule produced %d arrivals", len(arr))
	}
}

func TestSchedulePanicsWithoutServers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("missing Servers must panic")
		}
	}()
	Schedule(sim.NewRNG(1), Requests{Interarrival: netsim.Constant(time.Second)}, time.Minute)
}

func TestEventKindString(t *testing.T) {
	if EvMigrate.String() != "migrate" || EvDeactivate.String() != "deactivate" || EvActivate.String() != "activate" ||
		EvWake.String() != "wake" || EventKind(0).String() != "kind(0)" || EventKind(99).String() != "kind(99)" {
		t.Error("EventKind names wrong")
	}
}

func TestGridWalkValidate(t *testing.T) {
	if err := (GridWalk{Cells: cells(6), Width: 3, Height: 2}).Validate(); err != nil {
		t.Errorf("valid grid rejected: %v", err)
	}
	if err := (GridWalk{Cells: cells(5), Width: 3, Height: 2}).Validate(); err == nil {
		t.Error("mismatched cell count accepted")
	}
	if err := (GridWalk{Width: 0, Height: 2}).Validate(); err == nil {
		t.Error("degenerate grid accepted")
	}
}

func TestGridWalkStaysAdjacent(t *testing.T) {
	rng := sim.NewRNG(12)
	g := GridWalk{Cells: cells(12), Width: 4, Height: 3}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cur := g.Cells[0]
	for i := 0; i < 2000; i++ {
		next := g.Next(rng, cur)
		if next == cur {
			t.Fatalf("step %d: no movement", i)
		}
		ci, ni := -1, -1
		for j, c := range g.Cells {
			if c == cur {
				ci = j
			}
			if c == next {
				ni = j
			}
		}
		cx, cy := ci%4, ci/4
		nx, ny := ni%4, ni/4
		if abs(cx-nx)+abs(cy-ny) != 1 {
			t.Fatalf("step %d: %v -> %v is not a grid neighbour", i, cur, next)
		}
		cur = next
	}
}

func TestGridWalkCoversGrid(t *testing.T) {
	rng := sim.NewRNG(13)
	g := GridWalk{Cells: cells(9), Width: 3, Height: 3}
	visited := make(map[ids.MSS]bool)
	cur := g.Cells[4] // center
	for i := 0; i < 5000; i++ {
		cur = g.Next(rng, cur)
		visited[cur] = true
	}
	if len(visited) != 9 {
		t.Errorf("random walk visited %d of 9 cells", len(visited))
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// TestGenerateDrawOrder pins the generator's contract: one stream, drawn
// start cell → itinerary → requests; the two merged stably with the
// itinerary first on ties; sweeps last; and a part the description
// leaves out costs no draw.
func TestGenerateDrawOrder(t *testing.T) {
	s := Script{
		Cells: cells(4),
		Mobility: Mobility{
			Picker:       UniformCells{Cells: cells(4)},
			Residence:    netsim.Exponential{MeanDelay: time.Second, Floor: 100 * time.Millisecond},
			InactiveProb: 0.3,
			InactiveDur:  netsim.Constant(500 * time.Millisecond),
		},
		Requests: Requests{Interarrival: netsim.Exponential{MeanDelay: 400 * time.Millisecond}, Servers: []ids.Server{1, 2}, PayloadBytes: 4},
		Horizon:  20 * time.Second,
		WakeAt:   21 * time.Second,
		FlushAt:  22 * time.Second,
	}
	start, got := s.Generate(sim.NewRNG(5))

	rng := sim.NewRNG(5)
	wantStart := s.Cells[rng.Intn(len(s.Cells))]
	itin := Itinerary(rng, s.Mobility, wantStart, s.Horizon)
	reqs := Schedule(rng, s.Requests, s.Horizon)
	want := append(Merge(itin, reqs), Event{At: s.WakeAt, Kind: EvWake}, Event{At: s.FlushAt, Kind: EvFlush})
	if start != wantStart || !reflect.DeepEqual(got, want) {
		t.Fatalf("Generate drew a different life than start, Itinerary, Schedule in that order")
	}
	if len(itin) == 0 || len(reqs) == 0 || len(got) != cap(got) {
		t.Fatalf("itinerary %d, requests %d, len %d cap %d", len(itin), len(reqs), len(got), cap(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].At < got[i-1].At {
			t.Fatalf("script not sorted at %d", i)
		}
	}

	static := Script{Start: 3, Requests: s.Requests, Horizon: s.Horizon}
	start, got = static.Generate(sim.NewRNG(5))
	if start != 3 || !reflect.DeepEqual(got, Schedule(sim.NewRNG(5), s.Requests, s.Horizon)) {
		t.Error("a description without Cells and Mobility must draw requests only")
	}
}

// TestMergeItineraryFirstOnTies: a move and a request at one instant run
// in the order a serial driver would have inserted them.
func TestMergeItineraryFirstOnTies(t *testing.T) {
	moves := []Event{{At: 5, Kind: EvMigrate, Cell: 2}, {At: 9, Kind: EvMigrate, Cell: 3}}
	reqs := []Event{{At: 5, Kind: EvRequest}, {At: 7, Kind: EvRequest}}
	var kinds []EventKind
	for _, ev := range Merge(moves, reqs) {
		kinds = append(kinds, ev.Kind)
	}
	if want := []EventKind{EvMigrate, EvRequest, EvRequest, EvMigrate}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("merged order %v, want %v", kinds, want)
	}
}
