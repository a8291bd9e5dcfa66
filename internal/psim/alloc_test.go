package psim

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/rdpcore"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestCrossFrameAllocBudget pins the barrier's per-frame cost on warm
// regions: a wired frame from one region to another — emitted into the
// source's outbox, parked at the barrier, merged onto the destination's
// inbound list, scheduled through its recycled delivery records and
// delivered — costs nothing, a boxed message or a leg sent as a view (the
// frame keeps the leg by value, and the destination link shows it from
// its own slot), and neither does a script event, which schedules the run
// function its script bound once. The steps are the
// ones a window runs, driven by hand so a worker's arena outlives them
// the way it outlives a pooled run's windows.
func TestCrossFrameAllocBudget(t *testing.T) {
	base := rdpcore.DefaultConfig()
	base.NumMSS = 2
	base.WiredLatency = netsim.Constant(2 * time.Millisecond)
	pw := New(Config{Base: base, Regions: 2, Workers: 1, Lookahead: 2 * time.Millisecond})
	// A host in region 0 whose script deactivates it every 10ms from 1s
	// on: after the first, each event is a no-op that schedules the next.
	events := make([]MHEvent, 1000)
	for i := range events {
		events[i] = MHEvent{At: time.Second + time.Duration(i)*10*time.Millisecond, Kind: workload.EvDeactivate}
	}
	pw.AddMH(1, 1, events)
	pw.RunUntil(500 * time.Millisecond)
	r0, r1 := pw.regions[0], pw.regions[1]
	arena := sim.NewArena()

	// An orphan at the destination station, boxed and as a leg: processed
	// by counting it.
	leg := msg.AckForward{Proxy: ids.ProxyID{Host: 2, Seq: 9}, MH: 7}.Leg()
	crossFrameAllocs(t, pw, arena, "wired frame", msg.DelPrefOnly{Proxy: ids.ProxyID{Host: 2, Seq: 9}, MH: 7})
	crossFrameAllocs(t, pw, arena, "wired leg", msg.ViewOf(&leg))

	t.Run("script event", func(t *testing.T) {
		s := pw.scripts[1]
		at := sim.Time(time.Second)
		event := func() {
			at += sim.Time(10 * time.Millisecond)
			stepRegion(r0, at, arena)
		}
		for i := 0; i < 8; i++ {
			event()
		}
		before := s.next
		if avg := testing.AllocsPerRun(100, event); avg != 0 {
			t.Errorf("script event: %.1f allocs, budget 0", avg)
		}
		if got := s.next - before; got != 101 {
			t.Errorf("ran %d script events, want 101", got)
		}
	})
	if out := r1.crossCalls.Out(); out != 0 {
		t.Errorf("%d delivery records out after the last frame landed, want 0", out)
	}
}

// crossFrameAllocs runs TestCrossFrameAllocBudget's subtest of one wired
// frame m, from station 1 in region 0 to station 2 in region 1.
func crossFrameAllocs(t *testing.T, pw *World, arena *sim.Arena, name string, m msg.Message) {
	r0, r1 := pw.regions[0], pw.regions[1]
	t.Run(name, func(t *testing.T) {
		from, to := ids.MSS(1).Node(), ids.MSS(2).Node()
		now := r0.kernel.Now()
		hop := func() {
			now += sim.Time(time.Millisecond)
			r0.kernel.AdvanceTo(now)
			r0.link.Send(from, to, m) // emit
			r0.drain()                // park
			pw.inject(now + pw.lookahead + 1)
			if len(r1.inbound) != 1 {
				t.Fatalf("merge put %d frames on the destination's inbound list, want 1", len(r1.inbound))
			}
			stepRegion(r1, now+pw.lookahead+1, arena) // schedule, deliver
		}
		for i := 0; i < 8; i++ {
			hop()
		}
		before := r1.world.Stats.OrphanMessages.Value()
		if avg := testing.AllocsPerRun(100, hop); avg != 0 {
			t.Errorf("cross-region %s: %.1f allocs, budget 0", name, avg)
		}
		if got := r1.world.Stats.OrphanMessages.Value() - before; got != 101 {
			t.Errorf("delivered %d frames, want 101", got)
		}
	})
}

// TestCrossRegionRoundTripAllocBudget is rdpcore's
// TestRequestRoundTripAllocBudget with the server in the other region:
// the srv-request and the srv-result cross the barrier as legs by value
// — emitted, parked, merged and delivered unboxed — so one warm request's
// whole cycle costs the same one allocation, the server's reply. The
// windows are stepped by hand with one arena, as in
// TestCrossFrameAllocBudget.
func TestCrossRegionRoundTripAllocBudget(t *testing.T) {
	base := rdpcore.DefaultConfig()
	base.NumMSS = 2
	base.WiredLatency = netsim.Constant(2 * time.Millisecond)
	pw := New(Config{Base: base, Regions: 2, Workers: 1, Lookahead: 2 * time.Millisecond,
		AssignServer: func(ids.Server) int { return 1 }})
	pw.AddMH(1, 1, nil)
	pw.RunUntil(100 * time.Millisecond)
	r0, r1 := pw.regions[0], pw.regions[1]
	if _, ok := r1.world.Servers[1]; !ok {
		t.Fatal("server 1 is not in region 1")
	}
	arena := sim.NewArena()
	payload := []byte("q")
	trip := func() {
		// Issued the way a script event issues, with the worker's arena
		// attached to the kernel.
		r0.kernel.SetArena(arena)
		r0.world.IssueRequest(1, 1, payload)
		r0.kernel.SetArena(nil)
		for {
			at, ok := pw.low()
			if !ok {
				break
			}
			end := at + pw.lookahead
			pw.inject(end)
			for _, r := range pw.regions {
				stepRegion(r, end, arena)
			}
		}
	}
	for i := 0; i < 64; i++ {
		trip()
	}
	before, crossed := r0.world.Stats.ResultsDelivered.Value(), r0.crossFrames+r1.crossFrames
	if avg := testing.AllocsPerRun(200, trip); avg > 1 {
		t.Errorf("cross-region request round trip: %.2f allocs, budget 1", avg)
	}
	if got := r0.world.Stats.ResultsDelivered.Value() - before; got != 201 {
		t.Errorf("delivered %d results, want 201", got)
	}
	if got := r0.crossFrames + r1.crossFrames - crossed; got != 2*201 {
		t.Errorf("%d frames crossed regions, want the srv-request and srv-result of each trip (%d)", got, 2*201)
	}
	if r0.world.TotalProxies() != 0 || r0.world.Stats.Violations.Value() != 0 {
		t.Errorf("%d proxies left, %d violations", r0.world.TotalProxies(), r0.world.Stats.Violations.Value())
	}
}

// TestCrossRegionHandoffAllocBudget is rdpcore's TestHandoffAllocBudget
// with the two stations in different regions: the host moves from
// station 1 (region 0) to 2 (region 1) and back while its proxy at 1
// holds a request the server never answers, so the dereg, the deregack
// and the outbound update_currentLoc cross the barrier as legs by value.
// The host is detached and attached by hand, the way a transfer frame
// moves it, and the windows are stepped by hand with one arena, as in
// TestCrossFrameAllocBudget. Bystanders keep both stations' aggregated
// host sets populated, so the whole cycle costs nothing.
func TestCrossRegionHandoffAllocBudget(t *testing.T) {
	base := rdpcore.DefaultConfig()
	base.NumMSS = 2
	base.AggregatedState = true
	base.WiredLatency = netsim.Constant(2 * time.Millisecond)
	pw := New(Config{Base: base, Regions: 2, Workers: 1, Lookahead: 2 * time.Millisecond,
		AssignServer: func(ids.Server) int { return 0 }})
	r0, r1 := pw.regions[0], pw.regions[1]
	r0.world.ReplaceServer(1, netsim.HandlerFunc(func(ids.NodeID, msg.Message) {}))
	pw.AddMH(1, 1, nil)
	pw.AddMH(2, 1, nil)
	pw.AddMH(3, 2, nil)
	pw.RunUntil(100 * time.Millisecond)
	r0.world.IssueRequest(1, 1, []byte("q"))
	pw.RunUntil(200 * time.Millisecond)
	arena := sim.NewArena()
	settle := func() {
		for {
			at, ok := pw.low()
			if !ok {
				break
			}
			end := at + pw.lookahead
			pw.inject(end)
			for _, r := range pw.regions {
				stepRegion(r, end, arena)
			}
		}
	}
	move := func(from, to *region, cell ids.MSS) {
		h, active := from.world.DetachMH(1)
		to.kernel.SetArena(arena)
		to.world.AttachMH(h, cell, active)
		to.kernel.SetArena(nil)
		settle()
	}
	cycle := func() {
		move(r0, r1, 2)
		move(r1, r0, 1)
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	handoffs := r0.world.Stats.Handoffs.Value() + r1.world.Stats.Handoffs.Value()
	crossed := r0.crossFrames + r1.crossFrames
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("cross-region hand-off A -> B -> A: %.2f allocs, budget 0", avg)
	}
	if got := r0.world.Stats.Handoffs.Value() + r1.world.Stats.Handoffs.Value() - handoffs; got != 2*201 {
		t.Errorf("%d hand-offs, want %d", got, 2*201)
	}
	// Out: dereg, deregack, update_currentLoc; back: dereg and deregack.
	if got := r0.crossFrames + r1.crossFrames - crossed; got != 5*201 {
		t.Errorf("%d frames crossed regions, want %d", got, 5*201)
	}
	if r0.world.TotalProxies() != 1 || r0.world.Stats.Retransmissions.Value() != 0 {
		t.Errorf("%d proxies, %d re-forwards; want 1, 0", r0.world.TotalProxies(), r0.world.Stats.Retransmissions.Value())
	}
}
