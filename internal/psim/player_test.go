package psim_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/psim"
	"repro/internal/rdpcore"
	"repro/internal/sim"
	"repro/internal/workload"
)

// counters returns every Counter field of a Stats by name.
func counters(st *rdpcore.Stats) map[string]int64 {
	out := map[string]int64{}
	v := reflect.ValueOf(st).Elem()
	for i := 0; i < v.NumField(); i++ {
		if c, ok := v.Field(i).Addr().Interface().(*metrics.Counter); ok {
			out[v.Type().Field(i).Name] = c.Value()
		}
	}
	return out
}

// TestOneRegionMatchesSerialPlayer plays one generated population — with
// inactivity, carries, a disconnection window and a host crash in it —
// through the engine's chained cursor (Regions: 1) and through the
// serial player, which schedules every script up front. Both reach the
// hosts only through workload.Apply, so every Stats counter, the ledger
// and the kernel step count must agree. Latencies are constant: the two
// kernels insert same-instant events in different orders, which must not
// be able to matter.
func TestOneRegionMatchesSerialPlayer(t *testing.T) {
	const (
		horizon = 8 * time.Second
		mhs     = 16
	)
	base := e1Base(11)
	base.WiredLatency = netsim.Constant(2 * time.Millisecond)
	base.WirelessLatency = netsim.Constant(10 * time.Millisecond)
	base.ServerProc = netsim.Constant(120 * time.Millisecond)
	base.LeaseTTL = time.Second
	cells := cellList(base.NumMSS)
	scfg := psim.ScriptConfig{
		Mobility: workload.Mobility{
			Picker:            workload.UniformCells{Cells: cells},
			Residence:         netsim.Exponential{MeanDelay: 800 * time.Millisecond, Floor: 100 * time.Millisecond},
			InactiveProb:      0.25,
			InactiveDur:       netsim.Exponential{MeanDelay: 600 * time.Millisecond, Floor: 100 * time.Millisecond},
			MoveWhileInactive: 0.4,
		},
		Requests: workload.Requests{
			Interarrival: netsim.Exponential{MeanDelay: 900 * time.Millisecond, Floor: 50 * time.Millisecond},
			Servers:      serverList(base.NumServers),
			PayloadBytes: 32,
		},
		Horizon: horizon,
	}
	script := func(id ids.MH) (ids.MSS, []psim.MHEvent) {
		start, events := psim.BuildScript(base.Seed, id, cells, scfg)
		switch id % 4 {
		case 1:
			events = injectCrash(events, 2500*time.Millisecond, 3500*time.Millisecond)
		case 2:
			events = workload.Merge(events, []workload.Event{
				{At: 2 * time.Second, Kind: workload.EvDisconnect},
				{At: 4 * time.Second, Kind: workload.EvReconnect},
			})
		}
		return start, events
	}

	pw := psim.New(psim.Config{Base: base, Regions: 1, Workers: 1, Lookahead: 2 * time.Millisecond})
	w := rdpcore.NewWorldOn(sim.NewKernel(psim.SubSeed(base.Seed, 0)), base)
	pl := &workload.Player{Sched: w.Kernel, Sys: w}
	for i := 1; i <= mhs; i++ {
		id := ids.MH(i)
		start, events := script(id)
		pw.AddMH(id, start, events)
		w.AddMH(id, start)
		pl.Schedule(id, events)
	}
	pw.RunUntil(horizon + horizon/2)
	w.RunUntil(horizon + horizon/2)

	got, want := counters(pw.RegionStats()[0]), counters(w.Stats)
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s: engine %d, serial player %d", name, got[name], v)
		}
	}
	if want["MHCrashes"] != 4 || want["OfflineReplayed"] == 0 || want["Reactivations"] == 0 {
		t.Errorf("the population did not exercise crash (%d), offline replay (%d) and wake (%d)",
			want["MHCrashes"], want["OfflineReplayed"], want["Reactivations"])
	}
	if issued := pw.IssuedRequests()[0]; !reflect.DeepEqual(issued, pl.Ledger) {
		t.Errorf("ledgers differ: engine recorded %d requests, serial player %d", len(issued), len(pl.Ledger))
	}
	if a, b := pw.Summary().Steps, w.Kernel.(*sim.Kernel).Steps(); a != b {
		t.Errorf("kernel steps: engine %d, serial player %d", a, b)
	}
}

// TestCrashedHostIsCarriedAcrossRegions pins the one rule for a migrate
// event that finds its host crashed: the handset is carried silently —
// across a region boundary too, its crash flag and incarnation word
// travelling on the node — and reboots in the cell it was carried to
// (the serial E18 rule; the engine used to drop the move instead).
func TestCrashedHostIsCarriedAcrossRegions(t *testing.T) {
	base := e1Base(5)
	base.LeaseTTL = time.Second
	run := func(workers int) *psim.World {
		pw := psim.New(psim.Config{Base: base, Regions: 2, Workers: workers, Lookahead: 2 * time.Millisecond})
		pw.AddMH(1, 1, []psim.MHEvent{
			{At: time.Second, Kind: psim.EvCrash},
			{At: 1500 * time.Millisecond, Kind: psim.EvMigrate, Cell: 8}, // cells 5..8 are region 1's
			{At: 2 * time.Second, Kind: psim.EvRestart},
			{At: 2500 * time.Millisecond, Kind: psim.EvRequest, Server: 1, Payload: []byte("after")},
			{At: 5 * time.Second, Kind: psim.EvFlush},
		})
		pw.RunUntil(8 * time.Second)
		return pw
	}
	pw := run(1)
	if issued := pw.IssuedRequests(); len(issued[0]) != 0 || len(issued[1]) != 1 {
		t.Fatalf("post-restart request issued in regions %v, want it in region 1 only", issued)
	}
	if missing := pw.MissingResults(); len(missing) != 0 {
		t.Errorf("undelivered after the carry: %v", missing)
	}
	st := pw.RegionStats()
	if st[0].MHCrashes.Value() != 1 || st[1].MHRestarts.Value() != 1 {
		t.Errorf("crash/restart counted in regions %d/%d, want the crash in 0 and the reboot in 1",
			st[0].MHCrashes.Value(), st[1].MHRestarts.Value())
	}
	if s := pw.Summary(); s.Violations != 0 || s.CrossFrames == 0 {
		t.Errorf("violations %d, cross frames %d", s.Violations, s.CrossFrames)
	}
	assertRunsEqual(t, pw, run(2), "crashed carry")
}
