package rdpcore

import (
	"testing"
	"time"

	"repro/internal/aggstate"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// allOneTopic classifies every request into topic 0 — the simplest
// GroupTopic for tests where everything should share.
func allOneTopic(ids.Server, []byte) (uint32, bool) { return 0, true }

// aggWorld builds a 2-station aggregated-state world with deterministic
// latencies (5ms wired, 10ms wireless) and a slow server, so tests can
// measure state while requests are in flight.
func aggWorld(t *testing.T, proc time.Duration) (*World, *trace.Recorder) {
	t.Helper()
	rec := trace.New()
	cfg := DefaultConfig()
	cfg.NumMSS = 2
	cfg.WiredLatency = netsim.Constant(5 * time.Millisecond)
	cfg.WirelessLatency = netsim.Constant(10 * time.Millisecond)
	cfg.ServerProc = netsim.Constant(proc)
	cfg.AggregatedState = true
	cfg.GroupTopic = allOneTopic
	cfg.Observer = rec.Observe
	return NewWorld(cfg), rec
}

// TestSharedGroupFanout: N subscribers per cell asking the same question
// share one group proxy per cell and one server round-trip per cell; the
// single result fans out to every subscriber exactly once.
func TestSharedGroupFanout(t *testing.T) {
	w, rec := aggWorld(t, 100*time.Millisecond)
	srv := ids.Server(1)
	var mhs []*MHNode
	for i := 1; i <= 5; i++ {
		mhs = append(mhs, w.AddMH(ids.MH(i), ids.MSS(1)))
	}
	for i := 6; i <= 8; i++ {
		mhs = append(mhs, w.AddMH(ids.MH(i), ids.MSS(2)))
	}
	reqs := make([]ids.RequestID, len(mhs))
	w.Kernel.Defer(0, func() {
		for i, mh := range mhs {
			reqs[i] = mh.IssueRequest(srv, []byte("sub"))
		}
	})
	w.RunUntil(2 * time.Second)

	for i, mh := range mhs {
		if !mh.Seen(reqs[i]) {
			t.Errorf("mh%d never saw its result", i+1)
		}
	}
	if got := w.Stats.ResultsDelivered.Value(); got != 8 {
		t.Errorf("ResultsDelivered = %d, want 8", got)
	}
	if got := w.Stats.DuplicateDeliveries.Value(); got != 0 {
		t.Errorf("DuplicateDeliveries = %d, want 0", got)
	}
	if got := w.Stats.SharedProxies.Value(); got != 2 {
		t.Errorf("SharedProxies = %d, want 2 (one per cell)", got)
	}
	if got := w.Stats.SharedJoins.Value(); got != 8 {
		t.Errorf("SharedJoins = %d, want 8", got)
	}
	if got := rec.CountDelivered(msg.KindServerRequest); got != 2 {
		t.Errorf("server requests = %d, want 2 (one per group entry)", got)
	}
	if got := w.Stats.GroupFanouts.Value(); got != 8 {
		t.Errorf("GroupFanouts = %d, want 8", got)
	}
	if got := w.Stats.ProxiesCreated.Value(); got != 0 {
		t.Errorf("ProxiesCreated = %d, want 0 (everything rode the groups)", got)
	}
	if got := w.Stats.Violations.Value(); got != 0 {
		t.Errorf("Violations = %d, want 0", got)
	}
	if err := w.CheckQuiescent(); err != nil {
		t.Error(err)
	}
}

// TestSharedGroupHandoff: a member migrating while its request is in
// flight is redirected by a coalesced group_update_currentLoc; the
// result reaches it in the new cell, and the ack travels back as a
// group_ack_forward.
func TestSharedGroupHandoff(t *testing.T) {
	w, rec := aggWorld(t, 300*time.Millisecond)
	srv := ids.Server(1)
	mh := w.AddMH(1, ids.MSS(1))
	stay := w.AddMH(2, ids.MSS(1))
	var req1, req2 ids.RequestID
	w.Kernel.Defer(0, func() {
		req1 = mh.IssueRequest(srv, []byte("sub"))
		req2 = stay.IssueRequest(srv, []byte("sub"))
	})
	w.Kernel.Defer(100*time.Millisecond, func() { w.Migrate(1, ids.MSS(2)) })
	w.RunUntil(2 * time.Second)

	if !mh.Seen(req1) || !stay.Seen(req2) {
		t.Fatal("a subscriber missed its result")
	}
	if got := w.Stats.DuplicateDeliveries.Value(); got != 0 {
		t.Errorf("DuplicateDeliveries = %d, want 0", got)
	}
	if got := w.Stats.GroupUpdateLocs.Value(); got < 1 {
		t.Errorf("GroupUpdateLocs = %d, want >= 1 (the hand-off notice)", got)
	}
	if got := rec.CountDelivered(msg.KindGroupAckForward); got < 1 {
		t.Errorf("group_ack_forward deliveries = %d, want >= 1 (mss2's ack relay)", got)
	}
	// The migrated member's forward went straight to its new cell.
	if got := rec.CountDelivered(msg.KindUpdateCurrentLoc); got != 0 {
		t.Errorf("per-host update_currentLoc deliveries = %d, want 0 in aggregated mode", got)
	}
	if err := w.CheckQuiescent(); err != nil {
		t.Error(err)
	}
}

// TestSharedGroupRemoteRejoin: a member that moved to another cell keeps
// its shared pref; its next request is forwarded to the group host,
// re-joins with the new location, and is answered there.
func TestSharedGroupRemoteRejoin(t *testing.T) {
	w, rec := aggWorld(t, 50*time.Millisecond)
	srv := ids.Server(1)
	mh := w.AddMH(1, ids.MSS(1))
	var req1, req2 ids.RequestID
	w.Kernel.Defer(0, func() { req1 = mh.IssueRequest(srv, []byte("sub")) })
	w.Kernel.Defer(300*time.Millisecond, func() { w.Migrate(1, ids.MSS(2)) })
	w.Kernel.Defer(500*time.Millisecond, func() { req2 = mh.IssueRequest(srv, []byte("sub2")) })
	w.RunUntil(2 * time.Second)

	if !mh.Seen(req1) || !mh.Seen(req2) {
		t.Fatal("a request went unanswered")
	}
	if got := w.Stats.SharedProxies.Value(); got != 1 {
		t.Errorf("SharedProxies = %d, want 1 (the pref pins the member to mss1's group)", got)
	}
	if got := rec.CountDelivered(msg.KindRequestForward); got != 1 {
		t.Errorf("request forwards = %d, want 1 (the remote re-join)", got)
	}
	if got := rec.CountDelivered(msg.KindServerRequest); got != 2 {
		t.Errorf("server requests = %d, want 2 (distinct payloads)", got)
	}
	if got := w.Stats.DuplicateDeliveries.Value(); got != 0 {
		t.Errorf("DuplicateDeliveries = %d, want 0", got)
	}
	if err := w.CheckQuiescent(); err != nil {
		t.Error(err)
	}
}

// TestSharedGroupCrashRestore: the group host crashes with the server
// reply in flight. The journal restores the group — members, locations,
// open entries — and recovery re-issues the lost server request, so
// every subscriber is still served exactly once.
func TestSharedGroupCrashRestore(t *testing.T) {
	rec := trace.New()
	cfg := DefaultConfig()
	cfg.NumMSS = 2
	cfg.WiredLatency = netsim.Constant(5 * time.Millisecond)
	cfg.WirelessLatency = netsim.Constant(10 * time.Millisecond)
	cfg.ServerProc = netsim.Constant(300 * time.Millisecond)
	cfg.AggregatedState = true
	cfg.GroupTopic = allOneTopic
	cfg.Checkpoint = true
	cfg.RecoveryGrace = 50 * time.Millisecond
	// No ARQ, and therefore no causal order either: the reply dropped at
	// the down station must be lost for good (not wedge the channel), so
	// recovery's re-issued server request is the only path to delivery.
	cfg.Causal = false
	cfg.Observer = rec.Observe
	w := NewWorld(cfg)

	srv := ids.Server(1)
	var mhs []*MHNode
	for i := 1; i <= 3; i++ {
		mhs = append(mhs, w.AddMH(ids.MH(i), ids.MSS(1)))
	}
	reqs := make([]ids.RequestID, len(mhs))
	w.Kernel.Defer(0, func() {
		for i, mh := range mhs {
			reqs[i] = mh.IssueRequest(srv, []byte("sub"))
		}
	})
	// Crash after the joins are journaled but before the server reply
	// (due ~320ms) lands; the reply is lost with the station down.
	w.Kernel.Defer(150*time.Millisecond, func() { w.CrashMSS(1) })
	w.Kernel.Defer(400*time.Millisecond, func() { w.RestartMSS(1) })
	w.RunUntil(3 * time.Second)

	for i, mh := range mhs {
		if !mh.Seen(reqs[i]) {
			t.Errorf("mh%d never saw its result after the crash", i+1)
		}
	}
	if got := w.Stats.ResultsDelivered.Value(); got != 3 {
		t.Errorf("ResultsDelivered = %d, want 3", got)
	}
	if got := w.Stats.DuplicateDeliveries.Value(); got != 0 {
		t.Errorf("DuplicateDeliveries = %d, want 0", got)
	}
	if got := w.Stats.SharedProxies.Value(); got != 1 {
		t.Errorf("SharedProxies = %d, want 1 (restore must not double-count)", got)
	}
	if got := w.Stats.RecoveryResends.Value(); got < 1 {
		t.Errorf("RecoveryResends = %d, want >= 1 (the re-issued server request)", got)
	}
	if err := w.CheckQuiescent(); err != nil {
		t.Error(err)
	}
}

// setBytes reports the aggstate footprint of a member set — the test's
// reference for the exact-accounting assertions below.
func setBytes(vs ...uint32) int {
	var s aggstate.Set
	for _, v := range vs {
		s.Add(v)
	}
	return s.MemBytes()
}

// churnSetBytes is the footprint of a set that held vs and then lost
// them all — an emptied set can retain container capacity, so it is not
// byte-identical to a never-used one.
func churnSetBytes(vs ...uint32) int {
	var s aggstate.Set
	for _, v := range vs {
		s.Add(v)
	}
	for _, v := range vs {
		s.Remove(v)
	}
	return s.MemBytes()
}

// TestStateBytesExact pins the E16 accounting model: after each protocol
// phase — registration+subscription, hand-off, drain, departure — every
// station's StateBytes must equal the hand-computed model value, in both
// representations. A drift here means the representation (or the model)
// changed shape, which would silently invalidate the E16 ratios.
func TestStateBytesExact(t *testing.T) {
	run := func(t *testing.T, agg bool) (w *World, at map[string][2]int) {
		rec := trace.New()
		cfg := DefaultConfig()
		cfg.NumMSS = 2
		cfg.WiredLatency = netsim.Constant(5 * time.Millisecond)
		cfg.WirelessLatency = netsim.Constant(10 * time.Millisecond)
		cfg.ServerProc = netsim.Constant(300 * time.Millisecond)
		cfg.AggregatedState = agg
		if agg {
			cfg.GroupTopic = allOneTopic
		}
		cfg.Observer = rec.Observe
		w = NewWorld(cfg)
		srv := ids.Server(1)
		var mhs []*MHNode
		for i := 1; i <= 3; i++ {
			mhs = append(mhs, w.AddMH(ids.MH(i), ids.MSS(1)))
		}
		w.Kernel.Defer(0, func() {
			for _, mh := range mhs {
				mh.IssueRequest(srv, []byte("q"))
			}
		})
		w.Kernel.Defer(100*time.Millisecond, func() { w.Migrate(2, ids.MSS(2)) })
		w.Kernel.Defer(700*time.Millisecond, func() {
			w.Leave(1)
			w.Leave(2)
			w.Leave(3)
		})
		at = make(map[string][2]int)
		snap := func(name string, after time.Duration) {
			w.Kernel.Defer(after, func() {
				at[name] = [2]int{w.MSSs[1].StateBytes(), w.MSSs[2].StateBytes()}
			})
		}
		snap("subscribed", 50*time.Millisecond) // requests admitted, server busy
		snap("handoff", 200*time.Millisecond)   // MH2 now at mss2
		snap("drained", 600*time.Millisecond)   // results delivered + acked
		snap("departed", 800*time.Millisecond)  // all MHs left the system
		w.RunUntil(1 * time.Second)
		if err := w.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
		if got := w.Stats.ResultsDelivered.Value(); got != 3 {
			t.Fatalf("ResultsDelivered = %d, want 3", got)
		}
		return w, at
	}

	t.Run("faithful", func(t *testing.T) {
		_, at := run(t, false)
		// Model: per MH 48 (responsibility) + 80 (pref entry); per proxy
		// 160 + 120 per request + payload (1 byte) + result (0 until the
		// server replies, and the proxy dies with the ack).
		proxy := bytesProxy + bytesProxyReq + 1
		want := map[string][2]int{
			"subscribed": {3*bytesHostEntry + 3*bytesPrefEntry + 3*proxy, 0},
			"handoff":    {2*bytesHostEntry + 2*bytesPrefEntry + 3*proxy, bytesHostEntry + bytesPrefEntry},
			"drained":    {2 * (bytesHostEntry + bytesPrefEntry), bytesHostEntry + bytesPrefEntry},
			"departed":   {0, 0},
		}
		for name, w2 := range want {
			if at[name] != w2 {
				t.Errorf("%s: StateBytes = %v, want %v", name, at[name], w2)
			}
		}
	})

	t.Run("aggregated", func(t *testing.T) {
		w, at := run(t, true)
		if got := w.Stats.SharedProxies.Value(); got != 1 {
			t.Fatalf("SharedProxies = %d, want 1", got)
		}
		s123, s13, s2 := setBytes(1, 2, 3), setBytes(1, 3), setBytes(2)
		entry := bytesGroupEntry + 1 + 3*bytesWaiter + s123 // payload "q", 3 waiters, entrants
		want := map[string][2]int{
			// hostSet + prefTable group + group proxy (+ members) + entry.
			// The pref group has three members, so it holds a set. mss2's
			// only state so far is its (empty) responsibility set header.
			"subscribed": {s123 + bytesPrefGroup + s123 + bytesGroupProxy + s123 + entry, setBytes()},
			// MH2 moved: one memberLoc exception at mss1, its pref at mss2.
			// mss1's group keeps its set ({1, 3}, the capacity of a set
			// built that way); at mss2 MH2 is its group's lone member,
			// held inline, so the group costs its record alone:
			// s2 (98) + bytesPrefGroup (64) = 162 — a set would add
			// another s2, 260.
			"handoff": {
				s13 + bytesPrefGroup + s13 + bytesGroupProxy + s123 + bytesMemberLoc + entry,
				s2 + bytesPrefGroup,
			},
			// Entry retired; group and (never-deleted) shared prefs remain.
			"drained": {
				s13 + bytesPrefGroup + s13 + bytesGroupProxy + s123 + bytesMemberLoc,
				s2 + bytesPrefGroup,
			},
			// Members left: per-MH state gone, the group skeleton stays
			// (append-only membership, documented). The drained
			// responsibility sets keep their container capacity.
			"departed": {
				churnSetBytes(1, 2, 3) + bytesGroupProxy + s123 + bytesMemberLoc,
				churnSetBytes(2),
			},
		}
		for name, w2 := range want {
			if at[name] != w2 {
				t.Errorf("%s: StateBytes = %v, want %v", name, at[name], w2)
			}
		}
		// The headline comparison the model exists for: the aggregated
		// steady-subscribed footprint undercuts the faithful one.
		faithful := 3*bytesHostEntry + 3*bytesPrefEntry + 3*(bytesProxy+bytesProxyReq+1)
		if got := at["subscribed"][0]; got >= faithful {
			t.Errorf("aggregated subscribed footprint %d not below faithful %d", got, faithful)
		}
	})

	// One group pref through its whole life: a lone member inline (the
	// group record alone, 64), a second member bringing the set (64 + 104:
	// header 32, one chunk pointer 8, the chunk 56, an array of 4 uint16
	// — two members' append growth), back to one member (the set stays,
	// and Remove keeps its capacity, so still 168), and gone with its last
	// member.
	t.Run("group lifecycle", func(t *testing.T) {
		tab := newPrefTable(true)
		p := msg.Pref{Proxy: ids.ProxyID{Host: 1, Seq: 4}}
		steps := []struct {
			name string
			do   func()
			want int
		}{
			{"singleton", func() { tab.set(7, p) }, bytesPrefGroup},
			{"set", func() { tab.set(9, p) }, bytesPrefGroup + setBytes(7, 9)},
			{"one member left", func() { tab.delete(7) }, bytesPrefGroup + setBytes(7, 9)},
			{"gone", func() { tab.delete(9) }, 0},
		}
		for _, s := range steps {
			s.do()
			if got := tab.stateBytes(); got != s.want {
				t.Errorf("%s: stateBytes = %d, want %d", s.name, got, s.want)
			}
		}
	})
}

// TestOutstandingBytesModeInvariant: the outstanding-request ledger is
// workload state, not representation state — its modeled size must be
// identical in both modes at the same instant.
func TestOutstandingBytesModeInvariant(t *testing.T) {
	measure := func(agg bool) int64 {
		cfg := DefaultConfig()
		cfg.NumMSS = 2
		cfg.WiredLatency = netsim.Constant(5 * time.Millisecond)
		cfg.WirelessLatency = netsim.Constant(10 * time.Millisecond)
		cfg.ServerProc = netsim.Constant(300 * time.Millisecond)
		cfg.AggregatedState = agg
		if agg {
			cfg.GroupTopic = allOneTopic
		}
		w := NewWorld(cfg)
		srv := ids.Server(1)
		var mhs []*MHNode
		for i := 1; i <= 4; i++ {
			mhs = append(mhs, w.AddMH(ids.MH(i), ids.MSS(1)))
		}
		w.Kernel.Defer(0, func() {
			for _, mh := range mhs {
				mh.IssueRequest(srv, []byte("q"))
			}
		})
		var out int64
		w.Kernel.Defer(100*time.Millisecond, func() { out = w.OutstandingBytes() })
		w.RunUntil(150 * time.Millisecond)
		return out
	}
	f, a := measure(false), measure(true)
	if f != a || f == 0 {
		t.Errorf("OutstandingBytes: faithful %d vs aggregated %d, want equal and non-zero", f, a)
	}
}
