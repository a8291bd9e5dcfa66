package mobileip

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/netsim"
)

func build(mutate func(*Config)) *World {
	cfg := DefaultConfig()
	cfg.NumMSS = 4
	cfg.WiredLatency = netsim.Constant(5 * time.Millisecond)
	cfg.WirelessLatency = netsim.Constant(10 * time.Millisecond)
	cfg.ServerProc = netsim.Constant(50 * time.Millisecond)
	if mutate != nil {
		mutate(&cfg)
	}
	return NewWorld(cfg)
}

func TestStationaryDelivery(t *testing.T) {
	w := build(nil)
	mn := w.AddMH(1, 2, 1) // visiting cell 2, home agent at mss1
	var req ids.RequestID
	w.Kernel.Defer(0, func() { req = mn.IssueRequest(1, []byte("q")) })
	w.RunUntil(time.Second)
	if !mn.Seen(req) {
		t.Fatal("result not delivered to stationary node")
	}
	if got := w.Stats.Tunnels.Value(); got != 1 {
		t.Errorf("Tunnels = %d, want 1", got)
	}
	if got := w.Stats.TunnelLoad[1]; got != 1 {
		t.Errorf("home agent load at mss1 = %d, want 1", got)
	}
	if got := w.Stats.TunnelLoad[2]; got != 0 {
		t.Errorf("foreign agent mss2 tunneled %d, want 0", got)
	}
}

func TestHomeAgentCoLocatedWithVisitor(t *testing.T) {
	w := build(nil)
	mn := w.AddMH(1, 1, 1) // at home
	var req ids.RequestID
	w.Kernel.Defer(0, func() { req = mn.IssueRequest(1, []byte("q")) })
	w.RunUntil(time.Second)
	if !mn.Seen(req) {
		t.Fatal("result not delivered at home")
	}
}

func TestDatagramLostDuringHandoff(t *testing.T) {
	// The §4 claim: a datagram tunneled while the care-of update is in
	// flight is lost, and nothing retransmits it.
	w := build(nil)
	mn := w.AddMH(1, 2, 1)
	var req ids.RequestID
	w.Kernel.Defer(0, func() { req = mn.IssueRequest(1, []byte("q")) })
	// Reply reaches the home agent at ~80ms; migrate at 70ms so the
	// tunnel goes to the old care-of address.
	w.Kernel.Defer(70*time.Millisecond, func() { w.Migrate(1, 3) })
	w.RunUntil(3 * time.Second)
	if mn.Seen(req) {
		t.Fatal("datagram should have been lost during hand-off")
	}
	if got := w.Stats.ResultsDelivered.Value(); got != 0 {
		t.Errorf("ResultsDelivered = %d, want 0", got)
	}
	if got := w.Stats.WirelessDrops.Value(); got == 0 {
		t.Error("expected a wireless drop at the stale care-of address")
	}
}

func TestDatagramLostWhileInactive(t *testing.T) {
	w := build(nil)
	mn := w.AddMH(1, 2, 1)
	var req ids.RequestID
	w.Kernel.Defer(0, func() { req = mn.IssueRequest(1, []byte("q")) })
	w.Kernel.Defer(30*time.Millisecond, func() { w.SetActive(1, false) })
	w.Kernel.Defer(500*time.Millisecond, func() { w.SetActive(1, true) })
	w.RunUntil(3 * time.Second)
	if mn.Seen(req) {
		t.Fatal("datagram should have been lost while inactive; Mobile IP has no recovery")
	}
}

func TestUpperLayerRetryRecovers(t *testing.T) {
	w := build(func(c *Config) { c.RequestTimeout = 300 * time.Millisecond })
	mn := w.AddMH(1, 2, 1)
	var req ids.RequestID
	w.Kernel.Defer(0, func() { req = mn.IssueRequest(1, []byte("q")) })
	w.Kernel.Defer(70*time.Millisecond, func() { w.Migrate(1, 3) })
	w.RunUntil(5 * time.Second)
	if !mn.Seen(req) {
		t.Fatal("upper-layer retry did not recover the lost datagram")
	}
	if got := w.Stats.RequestRetries.Value(); got == 0 {
		t.Error("no retries recorded")
	}
	// Recovery costs at least one extra timeout of latency.
	if got := w.Stats.ResultLatency.Max(); got < 300*time.Millisecond {
		t.Errorf("recovered latency = %v, want >= one timeout", got)
	}
}

func TestLoadConcentratesAtHomeAgent(t *testing.T) {
	// All nodes share home mss1 and roam elsewhere: every reply funnels
	// through mss1 regardless of location — the E5 contrast with RDP.
	w := build(nil)
	for i := 1; i <= 6; i++ {
		mn := w.AddMH(ids.MH(i), ids.MSS(i%3+2), 1)
		for j := 0; j < 5; j++ {
			at := time.Duration(j)*200*time.Millisecond + time.Duration(i)*10*time.Millisecond
			w.Kernel.Defer(at, func() { mn.IssueRequest(1, []byte("x")) })
		}
	}
	w.RunUntil(10 * time.Second)
	if got := w.Stats.TunnelLoad[1]; got != 30 {
		t.Errorf("home agent tunneled %d datagrams, want 30", got)
	}
	for _, mss := range w.StationList()[1:] {
		if got := w.Stats.TunnelLoad[mss]; got != 0 {
			t.Errorf("station %v tunneled %d, want 0", mss, got)
		}
	}
	if got := w.Stats.ResultsDelivered.Value(); got != 30 {
		t.Errorf("delivered %d of 30", got)
	}
}

func TestDuplicateSuppression(t *testing.T) {
	// The upper-layer shim can cause duplicate replies; the node must
	// count but not re-deliver them.
	w := build(func(c *Config) { c.RequestTimeout = 50 * time.Millisecond })
	mn := w.AddMH(1, 2, 1)
	var req ids.RequestID
	w.Kernel.Defer(0, func() { req = mn.IssueRequest(1, []byte("q")) })
	w.RunUntil(3 * time.Second)
	if !mn.Seen(req) {
		t.Fatal("not delivered")
	}
	// Round trip ~85ms > 50ms timeout, so at least one retry fired and
	// produced a duplicate reply.
	if w.Stats.Duplicates.Value() == 0 {
		t.Error("expected duplicate replies from aggressive retry")
	}
	if got := w.Stats.ResultsDelivered.Value(); got != 1 {
		t.Errorf("ResultsDelivered = %d, want 1 despite duplicates", got)
	}
}

func TestMigrationRegistrationFlow(t *testing.T) {
	w := build(nil)
	w.AddMH(1, 2, 1)
	w.RunUntil(100 * time.Millisecond)
	before := w.Stats.Registrations.Value()
	w.Migrate(1, 4)
	w.RunUntil(time.Second)
	if got := w.Stats.Registrations.Value(); got != before+1 {
		t.Errorf("Registrations = %d, want %d", got, before+1)
	}
	if got := w.Home(1); got != 1 {
		t.Errorf("Home = %v, want mss1 (home never moves)", got)
	}
}

func TestWorldValidation(t *testing.T) {
	w := build(nil)
	w.AddMH(1, 1, 1)
	for name, fn := range map[string]func(){
		"duplicate MH": func() { w.AddMH(1, 1, 1) },
		"bad cell":     func() { w.AddMH(2, 99, 1) },
		"bad home":     func() { w.AddMH(3, 1, 99) },
		"unknown migrate": func() {
			w.Migrate(55, 1)
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		})
	}
}
