package itcp

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
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
	m := w.AddMH(1, 1)
	var req ids.RequestID
	w.Kernel.Defer(0, func() { req = m.IssueRequest(1, []byte("q")) })
	w.RunUntil(time.Second)
	if !m.Seen(req) {
		t.Fatal("result not delivered")
	}
	// Ack clears the buffered result.
	if pending, buffered := w.StationImage(1, 1); pending != 0 || buffered != 0 {
		t.Errorf("image = (%d pending, %d buffered), want empty", pending, buffered)
	}
}

func TestImageMovesOnHandoff(t *testing.T) {
	w := build(func(c *Config) { c.ServerProc = netsim.Constant(500 * time.Millisecond) })
	m := w.AddMH(1, 1)
	var req ids.RequestID
	w.Kernel.Defer(0, func() { req = m.IssueRequest(1, []byte("q")) })
	w.Kernel.Defer(100*time.Millisecond, func() { w.Migrate(1, 2) })
	w.RunUntil(2 * time.Second)
	if !m.Seen(req) {
		t.Fatal("result lost across image hand-off")
	}
	if got := w.Stats.Handoffs.Value(); got != 1 {
		t.Errorf("Handoffs = %d, want 1", got)
	}
	if got := w.Stats.ChasedResults.Value(); got != 1 {
		t.Errorf("ChasedResults = %d, want 1 (reply addressed to the old endpoint)", got)
	}
	if got := w.Stats.HandoffStateBytes.Value(); got == 0 {
		t.Error("no hand-off state recorded")
	}
}

func TestHandoffStateGrowsWithBufferedResults(t *testing.T) {
	// The E6 core fact, inverted for this baseline: the image grows with
	// the number of pending/buffered items.
	bytesFor := func(pending int) int64 {
		w := build(func(c *Config) { c.ServerProc = netsim.Constant(5 * time.Second) })
		m := w.AddMH(1, 1)
		w.Kernel.Defer(0, func() {
			for i := 0; i < pending; i++ {
				m.IssueRequest(1, make([]byte, 100))
			}
		})
		w.Kernel.Defer(200*time.Millisecond, func() { w.Migrate(1, 2) })
		w.RunUntil(time.Second)
		return w.Stats.HandoffStateBytes.Value()
	}
	small, large := bytesFor(1), bytesFor(50)
	if small == 0 {
		t.Fatal("no hand-off state recorded")
	}
	if large < small*10 {
		t.Errorf("image transfer should scale with load: %d vs %d bytes", small, large)
	}
}

func TestBufferedResultTransfersAndRedelivers(t *testing.T) {
	// A result delivered but not acked (MH went inactive) must survive
	// the image transfer and be retransmitted by the new station.
	w := build(nil)
	m := w.AddMH(1, 1)
	var req ids.RequestID
	w.Kernel.Defer(0, func() { req = m.IssueRequest(1, []byte("q")) })
	// Result reaches mss1 at ~70ms and the downlink at ~80ms; sleep at
	// 75ms so the delivery drops and the result stays buffered.
	w.Kernel.Defer(75*time.Millisecond, func() { w.SetActive(1, false) })
	w.Kernel.Defer(200*time.Millisecond, func() { w.Migrate(1, 3) }) // carried asleep
	w.Kernel.Defer(400*time.Millisecond, func() { w.SetActive(1, true) })
	w.RunUntil(3 * time.Second)
	if !m.Seen(req) {
		t.Fatal("buffered result not redelivered after wake-up hand-off")
	}
	if got := w.Stats.Handoffs.Value(); got != 1 {
		t.Errorf("Handoffs = %d, want 1", got)
	}
}

func TestReactivationRetransmitsInPlace(t *testing.T) {
	w := build(nil)
	m := w.AddMH(1, 1)
	var req ids.RequestID
	w.Kernel.Defer(0, func() { req = m.IssueRequest(1, []byte("q")) })
	w.Kernel.Defer(75*time.Millisecond, func() { w.SetActive(1, false) })
	w.Kernel.Defer(300*time.Millisecond, func() { w.SetActive(1, true) })
	w.RunUntil(2 * time.Second)
	if !m.Seen(req) {
		t.Fatal("buffered result not retransmitted on reactivation")
	}
	if got := w.Stats.Handoffs.Value(); got != 0 {
		t.Errorf("Handoffs = %d, want 0 for in-place reactivation", got)
	}
}

func TestDeliveryAcrossManyMigrations(t *testing.T) {
	w := build(func(c *Config) { c.ServerProc = netsim.Constant(400 * time.Millisecond) })
	m := w.AddMH(1, 1)
	var req ids.RequestID
	w.Kernel.Defer(0, func() { req = m.IssueRequest(1, []byte("x")) })
	for i := 1; i <= 10; i++ {
		cell := ids.MSS(i%4 + 1)
		w.Kernel.Defer(time.Duration(i)*70*time.Millisecond, func() { w.Migrate(1, cell) })
	}
	w.RunUntil(5 * time.Second)
	if !m.Seen(req) {
		t.Fatal("result lost under migration churn")
	}
	if got := w.Stats.Handoffs.Value(); got != 10 {
		t.Errorf("Handoffs = %d, want 10", got)
	}
}

func TestValidation(t *testing.T) {
	w := build(nil)
	w.AddMH(1, 1)
	for name, fn := range map[string]func(){
		"duplicate": func() { w.AddMH(1, 1) },
		"bad cell":  func() { w.AddMH(2, 99) },
		"unknown":   func() { w.Migrate(9, 1) },
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

func TestStationListAndMobileID(t *testing.T) {
	w := build(nil)
	if got := len(w.StationList()); got != 4 {
		t.Errorf("StationList = %d stations, want 4", got)
	}
	m := w.AddMH(3, 1)
	if m.ID() != 3 {
		t.Errorf("Mobile.ID = %v, want mh3", m.ID())
	}
}

func TestLateRequestFollowsImageChain(t *testing.T) {
	// A request reaching a station after its image moved on is forwarded
	// along the hand-off chain, and duplicate request ids are absorbed.
	w := build(func(c *Config) { c.ServerProc = netsim.Constant(300 * time.Millisecond) })
	m := w.AddMH(1, 1)
	var req ids.RequestID
	w.Kernel.Defer(0, func() { req = m.IssueRequest(1, []byte("q")) })
	w.Kernel.Defer(50*time.Millisecond, func() { w.Migrate(1, 2) })
	w.RunUntil(100 * time.Millisecond)
	// The stale station receives the same request again (a late frame).
	w.stationFor(1).HandleMessage(ids.MH(1).Node(), msg.Request{Req: req, Server: 1, Payload: []byte("q")})
	w.RunUntil(3 * time.Second)
	if !m.Seen(req) {
		t.Fatal("request lost")
	}
	if got := w.Stats.ResultsDelivered.Value(); got != 1 {
		t.Errorf("delivered %d, want 1 (duplicate absorbed)", got)
	}
}
