package faults

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestInjectorDeterministic(t *testing.T) {
	plan := Plan{Default: LinkFaults{DropProb: 0.3, DupProb: 0.1, DelayProb: 0.2, DelayMax: 20 * time.Millisecond}}
	run := func() []netsim.LinkFault {
		inj := New(sim.NewKernel(42), plan)
		var out []netsim.LinkFault
		for i := 0; i < 200; i++ {
			out = append(out, inj.OnWired(ids.MSS(1).Node(), ids.MSS(2).Node()))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d diverged under equal seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
	inj := New(sim.NewKernel(42), plan)
	for i := 0; i < 200; i++ {
		inj.OnWired(ids.MSS(1).Node(), ids.MSS(2).Node())
	}
	if inj.Stats.Drops.Value() == 0 || inj.Stats.Dups.Value() == 0 || inj.Stats.Delays.Value() == 0 {
		t.Errorf("expected every fault type to fire over 200 draws: drops=%d dups=%d delays=%d",
			inj.Stats.Drops.Value(), inj.Stats.Dups.Value(), inj.Stats.Delays.Value())
	}
}

func TestLinkOverride(t *testing.T) {
	plan := Plan{
		Default: LinkFaults{},
		Links: map[Link]LinkFaults{
			{From: ids.MSS(1).Node(), To: ids.MSS(2).Node()}: {DropProb: 1},
		},
	}
	inj := New(sim.NewKernel(1), plan)
	if f := inj.OnWired(ids.MSS(1).Node(), ids.MSS(2).Node()); !f.Drop {
		t.Error("overridden link should always drop")
	}
	if f := inj.OnWired(ids.MSS(2).Node(), ids.MSS(1).Node()); f.Drop {
		t.Error("reverse direction uses the default (no drop)")
	}
}

func TestPartitionWindow(t *testing.T) {
	k := sim.NewKernel(1)
	plan := Plan{Partitions: []Partition{{
		Start: 100 * time.Millisecond,
		End:   200 * time.Millisecond,
		A:     []ids.MSS{1},
		B:     []ids.MSS{2, 3},
	}}}
	inj := New(k, plan)
	probe := func() bool { return inj.OnWired(ids.MSS(2).Node(), ids.MSS(1).Node()).Drop }
	var before, during, after bool
	k.Defer(50*time.Millisecond, func() { before = probe() })
	k.Defer(150*time.Millisecond, func() { during = probe() })
	k.Defer(250*time.Millisecond, func() { after = probe() })
	k.Run()
	if before || !during || after {
		t.Errorf("partition gating wrong: before=%t during=%t after=%t", before, during, after)
	}
	// Links with at least one endpoint outside both groups are unaffected.
	k2 := sim.NewKernel(1)
	inj2 := New(k2, plan)
	k2.Defer(150*time.Millisecond, func() {
		if inj2.OnWired(ids.MSS(1).Node(), ids.Server(1).Node()).Drop {
			t.Error("MSS->server link must not be partitioned")
		}
		if inj2.OnWired(ids.MSS(2).Node(), ids.MSS(3).Node()).Drop {
			t.Error("intra-group link must not be partitioned")
		}
	})
	k2.Run()
	if inj.Stats.PartitionDrops.Value() != 1 {
		t.Errorf("PartitionDrops = %d, want 1", inj.Stats.PartitionDrops.Value())
	}
}

func TestScheduleCrashWindows(t *testing.T) {
	k := sim.NewKernel(1)
	inj := New(k, Plan{Crashes: []Crash{
		{MSS: 1, At: 10 * time.Millisecond, RestartAt: 30 * time.Millisecond},
		{MSS: 2, At: 20 * time.Millisecond}, // never restarts
	}})
	type ev struct {
		up  bool
		mss ids.MSS
		at  sim.Time
	}
	var evs []ev
	inj.Schedule(
		func(m ids.MSS) { evs = append(evs, ev{false, m, k.Now()}) },
		func(m ids.MSS) { evs = append(evs, ev{true, m, k.Now()}) },
	)
	k.Run()
	want := []ev{
		{false, 1, sim.Time(10 * time.Millisecond)},
		{false, 2, sim.Time(20 * time.Millisecond)},
		{true, 1, sim.Time(30 * time.Millisecond)},
	}
	if len(evs) != len(want) {
		t.Fatalf("events = %v, want %v", evs, want)
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Errorf("event %d = %v, want %v", i, evs[i], want[i])
		}
	}
	if inj.Stats.Crashes.Value() != 2 || inj.Stats.Restarts.Value() != 1 {
		t.Errorf("stats = %d crashes, %d restarts; want 2, 1",
			inj.Stats.Crashes.Value(), inj.Stats.Restarts.Value())
	}
}

func TestSlowdownWindow(t *testing.T) {
	k := sim.NewKernel(1)
	inj := New(k, Plan{Slowdowns: []Slowdown{
		{MSS: 1, Start: 100 * time.Millisecond, End: 200 * time.Millisecond, Extra: 30 * time.Millisecond},
		{MSS: 1, Start: 150 * time.Millisecond, End: 250 * time.Millisecond, Extra: 10 * time.Millisecond},
		{MSS: 2, Start: 0, End: time.Second, Extra: 5 * time.Millisecond},
	}})
	var before, during, overlap, after time.Duration
	k.Defer(50*time.Millisecond, func() { before = inj.ExtraProcDelay(1) })
	k.Defer(120*time.Millisecond, func() { during = inj.ExtraProcDelay(1) })
	k.Defer(170*time.Millisecond, func() { overlap = inj.ExtraProcDelay(1) })
	k.Defer(300*time.Millisecond, func() { after = inj.ExtraProcDelay(1) })
	k.Run()
	if before != 0 || during != 30*time.Millisecond ||
		overlap != 40*time.Millisecond || after != 0 {
		t.Errorf("ExtraProcDelay windows wrong: before=%v during=%v overlap=%v after=%v",
			before, during, overlap, after)
	}
}

func TestLoadFactorSpikes(t *testing.T) {
	inj := New(sim.NewKernel(1), Plan{Spikes: []LoadSpike{
		{Start: 100 * time.Millisecond, End: 300 * time.Millisecond, Factor: 2},
		{Start: 200 * time.Millisecond, End: 400 * time.Millisecond, Factor: 3},
	}})
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{50 * time.Millisecond, 1},
		{150 * time.Millisecond, 2},
		{250 * time.Millisecond, 6}, // overlapping spikes compound
		{350 * time.Millisecond, 3},
		{450 * time.Millisecond, 1},
	}
	for _, c := range cases {
		if got := inj.LoadFactor(c.at); got != c.want {
			t.Errorf("LoadFactor(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}
