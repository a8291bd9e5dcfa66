package sidam

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/rdpcore"
)

// sidamWorld builds an RDP world with a TIS network installed.
func sidamWorld(tises int, mutate func(*rdpcore.Config), scfg Config) (*rdpcore.World, *Network) {
	cfg := rdpcore.DefaultConfig()
	cfg.NumMSS = 4
	cfg.NumServers = tises
	cfg.WiredLatency = netsim.Constant(5 * time.Millisecond)
	cfg.WirelessLatency = netsim.Constant(10 * time.Millisecond)
	if mutate != nil {
		mutate(&cfg)
	}
	w := rdpcore.NewWorld(cfg)
	n := Install(w, scfg)
	return w, n
}

func TestPayloadCodecRoundTrip(t *testing.T) {
	f := func(opSel uint8, region uint32, value int32) bool {
		var payload []byte
		var wantOp Op
		switch opSel % 3 {
		case 0:
			payload, wantOp = EncodeQuery(region), OpQuery
			value = 0
		case 1:
			payload, wantOp = EncodeUpdate(region, value), OpUpdate
		default:
			payload, wantOp = EncodeSubscribe(region, value), OpSubscribe
		}
		op, r, v, err := DecodeOp(payload)
		return err == nil && op == wantOp && r == region && v == value
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadingCodecRoundTrip(t *testing.T) {
	f := func(region uint32, congestion int32, stamp int64) bool {
		r := Reading{Region: region, Congestion: congestion, Stamp: stamp}
		got, err := DecodeReading(EncodeReading(r))
		return err == nil && got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeOpRejectsGarbage(t *testing.T) {
	if _, _, _, err := DecodeOp([]byte{1, 2, 3}); err == nil {
		t.Error("short payload accepted")
	}
	if _, _, _, err := DecodeOp(make([]byte, 9)); err == nil {
		t.Error("zero op accepted")
	}
	if _, err := DecodeReading([]byte{1}); err == nil {
		t.Error("short reading accepted")
	}
}

func TestRingDistance(t *testing.T) {
	tests := []struct {
		a, b, n  int
		wantHops int
		wantDir  int
	}{
		{0, 0, 5, 0, +1},
		{0, 1, 5, 1, +1},
		{0, 4, 5, 1, -1},
		{1, 4, 6, 3, +1},
		{4, 1, 6, 3, +1}, // tie: forward direction wins
		{0, 3, 6, 3, +1},
	}
	for _, tt := range tests {
		hops, dir := ringDistance(tt.a, tt.b, tt.n)
		if hops != tt.wantHops || dir != tt.wantDir {
			t.Errorf("ringDistance(%d,%d,%d) = (%d,%d), want (%d,%d)",
				tt.a, tt.b, tt.n, hops, dir, tt.wantHops, tt.wantDir)
		}
	}
}

func TestLocalQuery(t *testing.T) {
	w, n := sidamWorld(3, nil, Config{
		Regions: 9, LocalProc: netsim.Constant(20 * time.Millisecond), InitialCongestion: 0,
	})
	mh := w.AddMH(1, 1)
	var got Reading
	mh.OnResult(func(_ ids.RequestID, payload []byte, dup bool) {
		if !dup {
			got, _ = DecodeReading(payload)
		}
	})
	// Region 0 is owned by the lowest TIS; query it directly.
	target := n.Owner(0)
	w.Kernel.Defer(0, func() { mh.IssueRequest(target, EncodeQuery(0)) })
	w.RunUntil(time.Second)
	if got.Region != 0 || got.Congestion != 0 {
		t.Errorf("reading = %+v, want region 0 congestion 0", got)
	}
	if n.Stats.RemoteOps.Value() != 0 {
		t.Errorf("RemoteOps = %d, want 0 for owner-local query", n.Stats.RemoteOps.Value())
	}
}

func TestRemoteQueryRoutesThroughRing(t *testing.T) {
	w, n := sidamWorld(5, nil, Config{
		Regions: 25, LocalProc: netsim.Constant(10 * time.Millisecond),
		HopProc: netsim.Constant(5 * time.Millisecond), InitialCongestion: 50,
	})
	mh := w.AddMH(1, 1)
	delivered := 0
	mh.OnResult(func(_ ids.RequestID, payload []byte, dup bool) {
		if dup {
			return
		}
		delivered++
		r, err := DecodeReading(payload)
		if err != nil || r.Congestion < 0 {
			t.Errorf("bad reading: %+v err=%v", r, err)
		}
	})
	// Send the query for region 2 to a TIS that does not own it; ring
	// distance from TIS index 0 to index 2 is 2 hops.
	entry := n.TISList()[0]
	if n.Owner(2) == entry {
		t.Fatal("test setup: region 2 must not be owned by the entry TIS")
	}
	w.Kernel.Defer(0, func() { mh.IssueRequest(entry, EncodeQuery(2)) })
	w.RunUntil(2 * time.Second)
	if delivered != 1 {
		t.Fatalf("delivered %d results, want 1", delivered)
	}
	if n.Stats.RemoteOps.Value() != 1 {
		t.Errorf("RemoteOps = %d, want 1", n.Stats.RemoteOps.Value())
	}
	if n.Stats.HopsTotal.Value() != 2 {
		t.Errorf("HopsTotal = %d, want 2", n.Stats.HopsTotal.Value())
	}
}

func TestUpdateVisibleToLaterQuery(t *testing.T) {
	w, n := sidamWorld(3, nil, Config{
		Regions: 9, LocalProc: netsim.Constant(5 * time.Millisecond), InitialCongestion: 0,
	})
	mh := w.AddMH(1, 1)
	var last Reading
	mh.OnResult(func(_ ids.RequestID, payload []byte, dup bool) {
		if !dup {
			last, _ = DecodeReading(payload)
		}
	})
	entry := n.AnyTIS()
	w.Kernel.Defer(0, func() { mh.IssueRequest(entry, EncodeUpdate(4, 87)) })
	w.Kernel.Defer(500*time.Millisecond, func() { mh.IssueRequest(entry, EncodeQuery(4)) })
	w.RunUntil(2 * time.Second)
	if last.Region != 4 || last.Congestion != 87 {
		t.Errorf("query after update = %+v, want region 4 congestion 87", last)
	}
	if got, ok := n.ReadingAt(4); !ok || got.Congestion != 87 {
		t.Errorf("owner store = %+v,%t", got, ok)
	}
}

func TestSubscriptionFiresOnThresholdCrossing(t *testing.T) {
	w, n := sidamWorld(3, nil, Config{
		Regions: 9, LocalProc: netsim.Constant(5 * time.Millisecond), InitialCongestion: 0,
	})
	sub := w.AddMH(1, 1)   // subscriber
	staff := w.AddMH(2, 2) // traffic staff feeding updates
	var notified []Reading
	sub.OnResult(func(_ ids.RequestID, payload []byte, dup bool) {
		if !dup {
			r, _ := DecodeReading(payload)
			notified = append(notified, r)
		}
	})
	entry := n.AnyTIS()
	w.Kernel.Defer(0, func() { sub.IssueRequest(entry, EncodeSubscribe(3, 30)) })
	// A small change must NOT notify; a large one must.
	w.Kernel.Defer(300*time.Millisecond, func() { staff.IssueRequest(entry, EncodeUpdate(3, 10)) })
	w.Kernel.Defer(600*time.Millisecond, func() { staff.IssueRequest(entry, EncodeUpdate(3, 55)) })
	w.RunUntil(3 * time.Second)

	if len(notified) != 1 {
		t.Fatalf("notifications = %d, want 1 (only the 55-point change crosses the 30 threshold)", len(notified))
	}
	if notified[0].Region != 3 || notified[0].Congestion != 55 {
		t.Errorf("notification = %+v, want region 3 congestion 55", notified[0])
	}
	if got := n.Stats.Notifications.Value(); got != 1 {
		t.Errorf("Stats.Notifications = %d, want 1", got)
	}
}

func TestSubscriptionNotifiesMigratedSubscriber(t *testing.T) {
	// The paper's subscribe use case: the notification is asynchronous
	// and the subscriber has moved cells since subscribing — RDP still
	// delivers it.
	w, n := sidamWorld(3, nil, Config{
		Regions: 9, LocalProc: netsim.Constant(5 * time.Millisecond), InitialCongestion: 0,
	})
	sub := w.AddMH(1, 1)
	staff := w.AddMH(2, 2)
	notified := 0
	sub.OnResult(func(_ ids.RequestID, payload []byte, dup bool) {
		if !dup {
			notified++
		}
	})
	entry := n.AnyTIS()
	w.Kernel.Defer(0, func() { sub.IssueRequest(entry, EncodeSubscribe(5, 20)) })
	w.Kernel.Defer(200*time.Millisecond, func() { w.Migrate(1, 3) })
	w.Kernel.Defer(400*time.Millisecond, func() { w.Migrate(1, 4) })
	w.Kernel.Defer(600*time.Millisecond, func() { staff.IssueRequest(entry, EncodeUpdate(5, 90)) })
	w.RunUntil(3 * time.Second)
	if notified != 1 {
		t.Fatalf("notified = %d, want 1 despite two migrations", notified)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSubscriptionIsOneShot(t *testing.T) {
	w, n := sidamWorld(2, nil, Config{
		Regions: 4, LocalProc: netsim.Constant(5 * time.Millisecond), InitialCongestion: 0,
	})
	sub := w.AddMH(1, 1)
	staff := w.AddMH(2, 2)
	notified := 0
	sub.OnResult(func(_ ids.RequestID, _ []byte, dup bool) {
		if !dup {
			notified++
		}
	})
	entry := n.AnyTIS()
	w.Kernel.Defer(0, func() { sub.IssueRequest(entry, EncodeSubscribe(0, 10)) })
	w.Kernel.Defer(300*time.Millisecond, func() { staff.IssueRequest(entry, EncodeUpdate(0, 50)) })
	w.Kernel.Defer(600*time.Millisecond, func() { staff.IssueRequest(entry, EncodeUpdate(0, 99)) })
	w.RunUntil(3 * time.Second)
	if notified != 1 {
		t.Errorf("notified = %d, want 1 (subscription consumed by first match)", notified)
	}
}

func TestMalformedPayloadStillAnswered(t *testing.T) {
	// A garbage request must not leave the client's proxy pending
	// forever.
	w, n := sidamWorld(2, nil, DefaultConfig())
	mh := w.AddMH(1, 1)
	var req ids.RequestID
	w.Kernel.Defer(0, func() { req = mh.IssueRequest(n.AnyTIS(), []byte("garbage")) })
	w.RunUntil(2 * time.Second)
	if !mh.Seen(req) {
		t.Error("malformed request left unanswered")
	}
	if got := w.TotalProxies(); got != 0 {
		t.Errorf("TotalProxies = %d, want 0", got)
	}
}

func TestOutOfRangeRegionAnswered(t *testing.T) {
	w, n := sidamWorld(2, nil, Config{Regions: 4, InitialCongestion: 0})
	mh := w.AddMH(1, 1)
	var got Reading
	mh.OnResult(func(_ ids.RequestID, payload []byte, dup bool) {
		if !dup {
			got, _ = DecodeReading(payload)
		}
	})
	w.Kernel.Defer(0, func() { mh.IssueRequest(n.AnyTIS(), EncodeQuery(99)) })
	w.RunUntil(time.Second)
	if got.Congestion != -1 {
		t.Errorf("out-of-range query answered %+v, want congestion -1", got)
	}
}

func TestRegionOwnershipPartition(t *testing.T) {
	_, n := sidamWorld(4, nil, Config{Regions: 16, InitialCongestion: 0})
	counts := make(map[ids.Server]int)
	for r := uint32(0); r < 16; r++ {
		counts[n.Owner(r)]++
	}
	if len(counts) != 4 {
		t.Fatalf("regions spread over %d TISes, want 4", len(counts))
	}
	for tis, c := range counts {
		if c != 4 {
			t.Errorf("TIS %v owns %d regions, want 4", tis, c)
		}
	}
}

func TestQueryCacheServesFreshAndExpires(t *testing.T) {
	w, n := sidamWorld(4, nil, Config{
		Regions:   16,
		LocalProc: netsim.Constant(5 * time.Millisecond),
		HopProc:   netsim.Constant(5 * time.Millisecond),
		CacheTTL:  2 * time.Second,
	})
	mh := w.AddMH(1, 1)
	var readings []Reading
	mh.OnResult(func(_ ids.RequestID, payload []byte, dup bool) {
		if !dup {
			if r, err := DecodeReading(payload); err == nil {
				readings = append(readings, r)
			}
		}
	})
	staff := w.AddMH(2, 2)
	entry := n.TISList()[0]
	region := uint32(1) // owned by the second TIS: remote from entry
	if n.Owner(region) == entry {
		t.Fatal("setup: region must be remote from the entry TIS")
	}
	// Staff updates go straight to the owner so they do not refresh the
	// entry TIS's cache (a routed reply legitimately would).
	ownerTIS := n.Owner(region)

	w.Schedule(0, func() { staff.IssueRequest(ownerTIS, EncodeUpdate(region, 40)) })
	// First query populates the cache; second (within TTL) hits it even
	// though the owner's value changed in between — the accuracy trade.
	w.Schedule(500*time.Millisecond, func() { mh.IssueRequest(entry, EncodeQuery(region)) })
	w.Schedule(time.Second, func() { staff.IssueRequest(ownerTIS, EncodeUpdate(region, 90)) })
	w.Schedule(1500*time.Millisecond, func() { mh.IssueRequest(entry, EncodeQuery(region)) })
	// Third query after the TTL expired routes to the owner again.
	w.Schedule(4*time.Second, func() { mh.IssueRequest(entry, EncodeQuery(region)) })
	w.RunUntil(8 * time.Second)

	if len(readings) != 3 {
		t.Fatalf("readings = %d, want 3 (%v)", len(readings), readings)
	}
	if readings[0].Congestion != 40 {
		t.Errorf("first query = %d, want 40", readings[0].Congestion)
	}
	if readings[1].Congestion != 40 {
		t.Errorf("cached query = %d, want stale 40", readings[1].Congestion)
	}
	if readings[2].Congestion != 90 {
		t.Errorf("post-TTL query = %d, want fresh 90", readings[2].Congestion)
	}
	if got := n.Stats.CacheHits.Value(); got != 1 {
		t.Errorf("CacheHits = %d, want 1", got)
	}
	if got := n.Stats.CacheMisses.Value(); got != 2 {
		t.Errorf("CacheMisses = %d, want 2", got)
	}
	// Only the two cache misses routed through the ring.
	if got := n.Stats.RemoteOps.Value(); got != 2 {
		t.Errorf("RemoteOps = %d, want 2 (the query misses; updates went to the owner)", got)
	}
}

func TestCacheDisabledByDefault(t *testing.T) {
	w, n := sidamWorld(4, nil, Config{Regions: 16, LocalProc: netsim.Constant(5 * time.Millisecond)})
	mh := w.AddMH(1, 1)
	entry := n.TISList()[0]
	region := uint32(1)
	w.Schedule(0, func() { mh.IssueRequest(entry, EncodeQuery(region)) })
	w.Schedule(time.Second, func() { mh.IssueRequest(entry, EncodeQuery(region)) })
	w.RunUntil(4 * time.Second)
	if got := n.Stats.CacheHits.Value(); got != 0 {
		t.Errorf("CacheHits = %d, want 0 with caching off", got)
	}
	if got := n.Stats.RemoteOps.Value(); got != 2 {
		t.Errorf("RemoteOps = %d, want 2", got)
	}
}
