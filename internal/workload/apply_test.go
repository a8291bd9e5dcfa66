package workload_test

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/rdpcore"
	"repro/internal/workload"
)

// TestEventSize pins the event record at the size psim.MHEvent had when
// the vocabulary moved here: the partitioned benchmark keeps 20 000
// scripts live, so a wider record is a memory regression.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(workload.Event{}); got > 48 {
		t.Errorf("Event is %d bytes, want <= 48", got)
	}
}

// hostState is everything Apply can change about a host, plus the
// counters its kinds move.
type hostState struct {
	loc                           ids.MSS
	active, disconnected, crashed bool
	issued                        bool // Apply returned a request id
	handoffs, reactivations       int64
	requests, offline             int64
	crashes, restarts, updateLocs int64
}

// TestApply is the table of what every event kind does to an RDP host in
// each device state. Host 7 sits in cell 1 with a request in flight (so
// a proxy exists and a re-greet is observable as an update_currentLoc);
// the event fires at 100ms and the world settles before it is read.
func TestApply(t *testing.T) {
	states := []struct {
		name string
		prep func(w *rdpcore.World)
	}{
		{"active", func(w *rdpcore.World) {}},
		{"inactive", func(w *rdpcore.World) { w.SetActive(7, false) }},
		{"disconnected", func(w *rdpcore.World) { w.Disconnect(7) }},
		{"crashed", func(w *rdpcore.World) { w.CrashMH(7) }},
	}
	// base is the host untouched by the event, per state.
	base := map[string]hostState{
		"active":       {loc: 1, active: true},
		"inactive":     {loc: 1},
		"disconnected": {loc: 1, active: true, disconnected: true},
		"crashed":      {loc: 1, active: true, crashed: true, crashes: 1},
	}
	with := func(s hostState, f func(*hostState)) hostState { f(&s); return s }
	cases := []struct {
		ev   workload.Event
		want map[string]hostState
	}{
		{workload.Event{Kind: workload.EvMigrate, Cell: 2}, map[string]hostState{
			"active":       with(base["active"], func(s *hostState) { s.loc, s.handoffs, s.updateLocs = 2, 1, 1 }),
			"inactive":     with(base["inactive"], func(s *hostState) { s.loc = 2 }), // carried silently
			"disconnected": base["disconnected"],                                     // no move out of coverage
			"crashed":      with(base["crashed"], func(s *hostState) { s.loc = 2 }),  // carried silently
		}},
		{workload.Event{Kind: workload.EvDeactivate}, map[string]hostState{
			"active":       with(base["active"], func(s *hostState) { s.active = false }),
			"inactive":     base["inactive"],
			"disconnected": with(base["disconnected"], func(s *hostState) { s.active = false }),
			"crashed":      with(base["crashed"], func(s *hostState) { s.active = false }),
		}},
		{workload.Event{Kind: workload.EvActivate, Cell: 2}, map[string]hostState{
			"active":       with(base["active"], func(s *hostState) { s.loc, s.handoffs, s.updateLocs = 2, 1, 1 }),
			"inactive":     with(base["inactive"], func(s *hostState) { s.loc, s.active, s.handoffs, s.updateLocs = 2, true, 1, 1 }),
			"disconnected": with(base["disconnected"], func(s *hostState) { s.loc = 2 }), // the greet dies at the radio
			"crashed":      with(base["crashed"], func(s *hostState) { s.loc = 2 }),
		}},
		{workload.Event{Kind: workload.EvWake}, map[string]hostState{
			"active":       base["active"],
			"inactive":     with(base["inactive"], func(s *hostState) { s.active, s.reactivations, s.updateLocs = true, 1, 1 }),
			"disconnected": base["disconnected"],
			"crashed":      base["crashed"],
		}},
		{workload.Event{Kind: workload.EvFlush}, map[string]hostState{
			"active":       with(base["active"], func(s *hostState) { s.reactivations, s.updateLocs = 1, 1 }), // re-greets
			"inactive":     with(base["inactive"], func(s *hostState) { s.active, s.reactivations, s.updateLocs = true, 1, 1 }),
			"disconnected": base["disconnected"],
			"crashed":      base["crashed"],
		}},
		{workload.Event{Kind: workload.EvRequest, Server: 1, Payload: []byte("q")}, map[string]hostState{
			"active":       with(base["active"], func(s *hostState) { s.issued, s.requests = true, 1 }),
			"inactive":     with(base["inactive"], func(s *hostState) { s.issued, s.requests = true, 1 }),
			"disconnected": with(base["disconnected"], func(s *hostState) { s.issued, s.requests, s.offline = true, 1, 1 }),
			"crashed":      base["crashed"], // a crashed host runs no code
		}},
		{workload.Event{Kind: workload.EvDisconnect}, map[string]hostState{
			"active":       with(base["active"], func(s *hostState) { s.disconnected = true }),
			"inactive":     with(base["inactive"], func(s *hostState) { s.disconnected = true }),
			"disconnected": base["disconnected"],
			"crashed":      with(base["crashed"], func(s *hostState) { s.disconnected = true }),
		}},
		{workload.Event{Kind: workload.EvReconnect}, map[string]hostState{
			"active":       base["active"],
			"inactive":     base["inactive"],
			"disconnected": with(base["disconnected"], func(s *hostState) { s.disconnected, s.reactivations, s.updateLocs = false, 1, 1 }),
			"crashed":      base["crashed"],
		}},
		{workload.Event{Kind: workload.EvCrash}, map[string]hostState{
			"active":       with(base["active"], func(s *hostState) { s.crashed, s.crashes = true, 1 }),
			"inactive":     with(base["inactive"], func(s *hostState) { s.crashed, s.crashes = true, 1 }),
			"disconnected": with(base["disconnected"], func(s *hostState) { s.crashed, s.crashes = true, 1 }),
			"crashed":      base["crashed"],
		}},
		{workload.Event{Kind: workload.EvRestart}, map[string]hostState{
			"active":       base["active"],
			"inactive":     base["inactive"],
			"disconnected": base["disconnected"],
			"crashed":      with(base["crashed"], func(s *hostState) { s.crashed, s.restarts, s.reactivations, s.updateLocs = false, 1, 1, 1 }), // the reboot re-registers in place
		}},
	}
	for _, tc := range cases {
		for _, st := range states {
			t.Run(tc.ev.Kind.String()+"/"+st.name, func(t *testing.T) {
				cfg := rdpcore.DefaultConfig()
				cfg.WiredLatency = netsim.Constant(time.Millisecond)
				cfg.WirelessLatency = netsim.Constant(time.Millisecond)
				cfg.ServerProc = netsim.Constant(time.Second) // the request outlives the event
				w := rdpcore.NewWorld(cfg)
				w.AddMH(7, 1)
				w.Schedule(0, func() { w.IssueRequest(7, 1, []byte("pending")) })
				w.Schedule(50*time.Millisecond, func() { st.prep(w) })
				w.RunUntil(90 * time.Millisecond)
				snap := func() [5]int64 {
					s := w.Stats
					return [5]int64{s.Handoffs.Value(), s.Reactivations.Value(), s.RequestsIssued.Value(), s.OfflineQueued.Value(), s.UpdateCurrLocs.Value()}
				}
				before := snap()
				ev := tc.ev
				var req ids.RequestID
				w.Schedule(10*time.Millisecond, func() { req = workload.Apply(w, 7, &ev) })
				w.RunUntil(500 * time.Millisecond)

				after := snap()
				got := hostState{
					loc: w.Location(7), active: w.IsActive(7), disconnected: w.IsDisconnected(7), crashed: w.IsCrashed(7),
					issued:        req.Seq != 0,
					handoffs:      after[0] - before[0],
					reactivations: after[1] - before[1],
					requests:      after[2] - before[2],
					offline:       after[3] - before[3],
					crashes:       w.Stats.MHCrashes.Value(),
					restarts:      w.Stats.MHRestarts.Value(),
					updateLocs:    after[4] - before[4],
				}
				if want := tc.want[st.name]; got != want {
					t.Errorf("\n got %+v\nwant %+v", got, want)
				}
				if v := w.Stats.Violations.Value(); v != 0 {
					t.Errorf("%d protocol violations: %v", v, w.ViolationLog())
				}
			})
		}
	}
}

// TestApplyBaselineRefusesFaultKinds: a system without the fault surface
// must not silently swallow a coverage or crash event.
func TestApplyBaselineRefusesFaultKinds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Apply(EvCrash) on a plain System must panic")
		}
	}()
	workload.Apply(plainSystem{}, 1, &workload.Event{Kind: workload.EvCrash})
}

type plainSystem struct{}

func (plainSystem) Migrate(ids.MH, ids.MSS) {}
func (plainSystem) SetActive(ids.MH, bool)  {}
func (plainSystem) IssueRequest(ids.MH, ids.Server, []byte) ids.RequestID {
	return ids.RequestID{}
}
