package rdp_test

import (
	"strings"
	"testing"
	"time"

	rdp "repro"
	"repro/internal/msg"
	"repro/internal/netsim"
)

// TestPublicQuickstart is the README quick-start, verified.
func TestPublicQuickstart(t *testing.T) {
	cfg := rdp.DefaultConfig()
	world := rdp.NewWorld(cfg)
	mh := world.AddMH(1, 1)
	var req rdp.RequestID
	world.Schedule(0, func() { req = mh.IssueRequest(1, []byte("hello")) })
	world.Schedule(40*time.Millisecond, func() { world.Migrate(1, 2) })
	world.RunUntil(2 * time.Second)
	if !mh.Seen(req) {
		t.Fatal("quick-start request not delivered")
	}
	if got := world.Stats.Handoffs.Value(); got != 1 {
		t.Errorf("Handoffs = %d, want 1", got)
	}
}

func TestPublicTraceAPI(t *testing.T) {
	rec := rdp.NewTrace()
	cfg := rdp.DefaultConfig()
	cfg.Observer = rec.Observe
	world := rdp.NewWorld(cfg)
	mh := world.AddMH(1, 1)
	world.Schedule(0, func() { mh.IssueRequest(1, []byte("x")) })
	world.RunUntil(time.Second)
	err := rec.ExpectSequence([]rdp.TraceStep{
		{Kind: rdp.KindRequest},
		{Kind: rdp.KindServerRequest},
		{Kind: rdp.KindServerResult},
		{Kind: rdp.KindResultDeliver},
		{Kind: rdp.KindAckMH},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPublicSidamAPI(t *testing.T) {
	cfg := rdp.DefaultConfig()
	cfg.NumServers = 3
	world := rdp.NewWorld(cfg)
	net := rdp.InstallSidam(world, rdp.SidamConfig{Regions: 9, InitialCongestion: 0})
	mh := world.AddMH(1, 1)
	var got rdp.Reading
	mh.OnResult(func(_ rdp.RequestID, payload []byte, dup bool) {
		if !dup {
			got, _ = rdp.ParseReading(payload)
		}
	})
	world.Schedule(0, func() { mh.IssueRequest(net.AnyTIS(), rdp.UpdatePayload(4, 77)) })
	world.Schedule(time.Second, func() { mh.IssueRequest(net.AnyTIS(), rdp.QueryPayload(4)) })
	world.RunUntil(3 * time.Second)
	if got.Region != 4 || got.Congestion != 77 {
		t.Errorf("reading = %+v, want region 4 congestion 77", got)
	}
}

func TestPublicBaselines(t *testing.T) {
	mip := rdp.NewMobileIPWorld(rdp.DefaultMobileIPConfig())
	mn := mip.AddMH(1, 2, 1)
	var req rdp.RequestID
	mip.Kernel.Defer(0, func() { req = mn.IssueRequest(1, []byte("q")) })
	mip.RunUntil(2 * time.Second)
	if !mn.Seen(req) {
		t.Error("Mobile IP baseline failed a stationary delivery")
	}

	it := rdp.NewITCPWorld(rdp.DefaultITCPConfig())
	m := it.AddMH(1, 1)
	var req2 rdp.RequestID
	it.Kernel.Defer(0, func() { req2 = m.IssueRequest(1, []byte("q")) })
	it.RunUntil(2 * time.Second)
	if !m.Seen(req2) {
		t.Error("I-TCP baseline failed a stationary delivery")
	}
}

func TestPublicWorkloadAPI(t *testing.T) {
	rng := rdp.NewRNG(1)
	cells := []rdp.MSS{1, 2, 3}
	itin := rdp.Itinerary(rng, rdp.Mobility{
		Picker:    rdp.UniformCells{Cells: cells},
		Residence: rdp.Constant(time.Second),
	}, 1, 10*time.Second)
	if len(itin) == 0 {
		t.Error("no itinerary events")
	}
	arr := rdp.ScheduleRequests(rng, rdp.Requests{
		Interarrival: rdp.Exponential{MeanDelay: time.Second},
		Servers:      []rdp.Server{1},
	}, 10*time.Second)
	if len(arr) == 0 {
		t.Error("no request arrivals")
	}
}

func TestPublicLiveRuntime(t *testing.T) {
	rt := rdp.NewLiveRuntime(1)
	cfg := rdp.DefaultConfig()
	cfg.WiredLatency = rdp.Constant(time.Millisecond)
	cfg.WirelessLatency = rdp.Constant(time.Millisecond)
	cfg.ServerProc = rdp.Constant(5 * time.Millisecond)
	world := rdp.NewLiveWorld(rt, cfg)
	rt.Start()
	defer rt.Stop()
	done := make(chan struct{}, 1)
	rt.Do(func() {
		mh := world.AddMH(1, 1)
		mh.OnResult(func(rdp.RequestID, []byte, bool) { done <- struct{}{} })
		mh.IssueRequest(1, []byte("live"))
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("live delivery timed out")
	}
}

func TestPublicTCPWorld(t *testing.T) {
	rt := rdp.NewLiveRuntime(1)
	cfg := rdp.DefaultConfig()
	cfg.ServerProc = rdp.Constant(30 * time.Millisecond)
	world, net, err := rdp.NewTCPWorld(rt, cfg)
	if err != nil {
		t.Fatalf("NewTCPWorld: %v", err)
	}
	rt.Start()
	defer func() {
		rt.Stop()
		net.Close()
	}()
	done := make(chan struct{}, 1)
	rt.Do(func() {
		mh := world.AddMH(1, 1)
		mh.OnResult(func(_ rdp.RequestID, _ []byte, dup bool) {
			if !dup {
				done <- struct{}{}
			}
		})
		mh.IssueRequest(1, []byte("over real sockets"))
	})
	// Hand off while the server computes; the proxy must chase over TCP.
	time.Sleep(10 * time.Millisecond)
	rt.Do(func() { world.Migrate(1, 2) })
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("TCP delivery timed out")
	}
	if addr := net.Addr(rdp.MSS(1).Node()); addr == "" {
		t.Error("station 1 has no TCP address")
	}
}

type nopSequencer struct{}

func (nopSequencer) Offer(netsim.Layer, rdp.NodeID, rdp.NodeID, func()) {}

// TestTCPWorldRejectsLinkLayerSettings: the TCP substrate has no ARQ,
// windowed transport, fault injector, sequencer, queue bound, radio loss
// or per-pair latency, and always orders wired frames causally, so a
// Config that asks otherwise must fail loudly, naming the field, instead
// of running without it.
func TestTCPWorldRejectsLinkLayerSettings(t *testing.T) {
	_, injector := rdp.NewFaultedWorld(rdp.DefaultConfig(), rdp.FaultPlan{})
	for _, tc := range []struct {
		field string
		set   func(*rdp.Config)
	}{
		{"WiredARQ", func(c *rdp.Config) { c.WiredARQ.Enabled = true }},
		{"WirelessWTP", func(c *rdp.Config) { c.WirelessWTP.Enabled = true }},
		{"WiredFaults", func(c *rdp.Config) { c.WiredFaults = injector }},
		{"WiredSeq", func(c *rdp.Config) { c.WiredSeq = nopSequencer{} }},
		{"WirelessSeq", func(c *rdp.Config) { c.WirelessSeq = nopSequencer{} }},
		{"WiredQueueLimit", func(c *rdp.Config) { c.WiredQueueLimit = 4 }},
		{"WirelessQueueLimit", func(c *rdp.Config) { c.WirelessQueueLimit = 4 }},
		{"WirelessLoss", func(c *rdp.Config) { c.WirelessLoss = 0.2 }},
		{"WirelessDropFilter", func(c *rdp.Config) {
			c.WirelessDropFilter = func(_, _ rdp.NodeID, _ msg.Message) bool { return false }
		}},
		{"WiredPairLatency", func(c *rdp.Config) { c.WiredPairLatency = rdp.RingLatency(3, 0, time.Millisecond) }},
		{"Causal", func(c *rdp.Config) { c.Causal = false }},
	} {
		cfg := rdp.DefaultConfig()
		tc.set(&cfg)
		world, net, err := rdp.NewTCPWorld(rdp.NewLiveRuntime(1), cfg)
		if err == nil {
			net.Close()
			t.Errorf("%s: accepted, want an error", tc.field)
			continue
		}
		if world != nil || net != nil {
			t.Errorf("%s: non-nil world/net returned alongside the error", tc.field)
		}
		if !strings.Contains(err.Error(), "Config."+tc.field) {
			t.Errorf("%s: error %q does not name the field", tc.field, err)
		}
	}
}

func TestJainIndexExport(t *testing.T) {
	if got := rdp.JainIndex([]float64{1, 1, 1, 1}); got != 1 {
		t.Errorf("JainIndex = %v, want 1", got)
	}
}

func TestPublicMulticastAPI(t *testing.T) {
	cfg := rdp.DefaultConfig()
	cfg.NumServers = 2
	world := rdp.NewWorld(cfg)
	net := rdp.InstallSidam(world, rdp.SidamConfig{Regions: 8})
	entry := net.TISList()[0]

	member := world.AddMH(1, 1)
	var got []string
	park := func() { member.IssueRequest(entry, rdp.MailboxPayload()) }
	member.OnResult(func(_ rdp.RequestID, payload []byte, dup bool) {
		if dup {
			return
		}
		if _, _, data, err := rdp.ParseGroupMsg(payload); err == nil {
			got = append(got, string(data))
			world.Schedule(0, park)
		}
	})
	world.Schedule(0, park)
	net.ConfigureGroup(3, []rdp.MH{1})

	sender := world.AddMH(2, 2)
	world.Schedule(500*time.Millisecond, func() {
		sender.IssueRequest(entry, rdp.MulticastPayload(3, []byte("ping")))
	})
	world.RunUntil(5 * time.Second)
	if len(got) != 1 || got[0] != "ping" {
		t.Fatalf("member received %v, want [ping]", got)
	}
}

func TestPublicRingLatency(t *testing.T) {
	pl := rdp.RingLatency(8, 2*time.Millisecond, time.Millisecond)
	near := pl(rdp.MSS(1).Node(), rdp.MSS(2).Node())
	far := pl(rdp.MSS(1).Node(), rdp.MSS(5).Node())
	if near == nil || far == nil {
		t.Fatal("station pairs must get a ring model")
	}
	if near.Mean() >= far.Mean() {
		t.Errorf("1-hop mean %v >= 4-hop mean %v", near.Mean(), far.Mean())
	}
	if pl(rdp.MSS(1).Node(), rdp.Server(1).Node()) != nil {
		t.Error("server pairs must fall back to the default wired latency")
	}

	cfg := rdp.DefaultConfig()
	cfg.NumMSS = 8
	cfg.WiredPairLatency = pl
	world := rdp.NewWorld(cfg)
	mh := world.AddMH(1, 1)
	var req rdp.RequestID
	world.Schedule(0, func() { req = mh.IssueRequest(1, []byte("ring")) })
	world.Schedule(30*time.Millisecond, func() { world.Migrate(1, 5) })
	world.RunUntil(3 * time.Second)
	if !mh.Seen(req) {
		t.Error("ring-latency world failed to deliver")
	}
}

func TestDefaultSidamConfig(t *testing.T) {
	cfg := rdp.DefaultSidamConfig()
	if cfg.Regions == 0 {
		t.Fatal("default SIDAM config has no regions")
	}
	world := rdp.NewWorld(rdp.DefaultConfig())
	net := rdp.InstallSidam(world, cfg)
	if len(net.TISList()) == 0 {
		t.Fatal("no Traffic Information Servers installed")
	}
}

// TestPublicFaultInjection drives the E10 machinery through the public
// API: a lossy backbone plus one station crash, countered by the wired
// ARQ and checkpoint recovery.
func TestPublicFaultInjection(t *testing.T) {
	cfg := rdp.DefaultConfig()
	cfg.WiredARQ = rdp.ARQConfig{Enabled: true, RTO: 30 * time.Millisecond}
	cfg.Checkpoint = true
	cfg.RecoveryGrace = 200 * time.Millisecond
	cfg.ServerProc = rdp.Constant(300 * time.Millisecond)
	w, inj := rdp.NewFaultedWorld(cfg, rdp.FaultPlan{
		Default: rdp.LinkFaults{DropProb: 0.2},
		Crashes: []rdp.Crash{{MSS: 1, At: 100 * time.Millisecond, RestartAt: 500 * time.Millisecond}},
	})
	mh := w.AddMH(1, 1)
	var req rdp.RequestID
	w.Schedule(0, func() { req = mh.IssueRequest(1, []byte("chaos")) })
	w.RunUntil(5 * time.Second)
	if !mh.Seen(req) {
		t.Fatal("result lost despite ARQ + crash recovery")
	}
	if inj.Stats.Drops.Value() == 0 {
		t.Error("injector reported no drops at 20% loss")
	}
	if got := w.Stats.MSSCrashes.Value(); got != 1 {
		t.Errorf("MSSCrashes = %d, want 1", got)
	}
}
