package rdpcore

import (
	"slices"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/proxymig"
	"repro/internal/sim"
)

// migrationWorld builds the deterministic 3-station world of the figure
// scenarios with a migration policy installed.
func migrationWorld(t *testing.T, pol proxymig.Policy, proc netsim.LatencyModel) *World {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumMSS = 3
	cfg.WiredLatency = netsim.Constant(5 * time.Millisecond)
	cfg.WirelessLatency = netsim.Constant(10 * time.Millisecond)
	cfg.ServerProc = proc
	cfg.Migration = pol
	return NewWorld(cfg)
}

// TestMigrationTransfersPendingRequest runs the canonical episode: two
// requests share a proxy at mss1, the MH moves to mss2, the faster
// result's remote forward fires the hop trigger, and the proxy — with
// the slow request still pending at the server — moves to mss2. The
// server learns the new pref before replying, so the slow result takes
// the direct path; the tombstone drains and is collected.
func TestMigrationTransfersPendingRequest(t *testing.T) {
	proc := &scriptedProc{delays: []time.Duration{800 * time.Millisecond, 250 * time.Millisecond}}
	w := migrationWorld(t, proxymig.Policy{HopThreshold: 1}, proc)
	mss1, mss2 := ids.MSS(1), ids.MSS(2)
	srv := ids.Server(1)
	mh := w.AddMH(1, mss1)

	var reqA, reqB ids.RequestID
	w.Kernel.Defer(0, func() { reqA = mh.IssueRequest(srv, []byte("slow")) })
	w.Kernel.Defer(5*time.Millisecond, func() { reqB = mh.IssueRequest(srv, []byte("fast")) })
	w.Kernel.Defer(50*time.Millisecond, func() { w.Migrate(1, mss2) })
	w.RunUntil(3 * time.Second)

	for _, req := range []ids.RequestID{reqA, reqB} {
		if !mh.Seen(req) {
			t.Errorf("result of %v never delivered", req)
		}
	}
	if got := w.Stats.ResultsDelivered.Value(); got != 2 {
		t.Errorf("ResultsDelivered = %d, want 2", got)
	}
	if got := w.Stats.DuplicateDeliveries.Value(); got != 0 {
		t.Errorf("DuplicateDeliveries = %d, want 0", got)
	}
	if got := w.Stats.MigOffers.Value(); got != 1 {
		t.Errorf("MigOffers = %d, want 1", got)
	}
	if got := w.Stats.MigCompleted.Value(); got != 1 {
		t.Errorf("MigCompleted = %d, want 1", got)
	}
	if got := w.Stats.MigRefusals.Value(); got != 0 {
		t.Errorf("MigRefusals = %d, want 0", got)
	}
	// One logical proxy, placed once at each station.
	if got := w.Stats.ProxiesCreated.Value(); got != 1 {
		t.Errorf("ProxiesCreated = %d, want 1 (migration is not a new proxy)", got)
	}
	if got := w.Stats.ProxyCreations[mss1]; got != 1 {
		t.Errorf("placements at mss1 = %d, want 1", got)
	}
	if got := w.Stats.ProxyCreations[mss2]; got != 1 {
		t.Errorf("placements at mss2 = %d, want 1", got)
	}
	if got := w.Stats.PrefRedirects.Value(); got == 0 {
		t.Error("PrefRedirects = 0, want at least the install-time rebind")
	}
	if got := w.TotalProxies(); got != 0 {
		t.Errorf("TotalProxies = %d, want 0 after the final ack", got)
	}
	if err := w.CheckQuiescent(); err != nil {
		t.Error(err)
	}
}

// TestMigrationRedirectsInFlightReply tightens the slow request's
// timing so its reply leaves the server addressed to the old proxy —
// after the state transfer but before the pref_redirect lands. The
// tombstone must rewrite and re-aim the reply; nothing is delivered
// twice.
func TestMigrationRedirectsInFlightReply(t *testing.T) {
	proc := &scriptedProc{delays: []time.Duration{275 * time.Millisecond, 250 * time.Millisecond}}
	w := migrationWorld(t, proxymig.Policy{HopThreshold: 1}, proc)
	mss1, mss2 := ids.MSS(1), ids.MSS(2)
	srv := ids.Server(1)
	mh := w.AddMH(1, mss1)

	var reqA, reqB ids.RequestID
	w.Kernel.Defer(0, func() { reqA = mh.IssueRequest(srv, []byte("A")) })
	w.Kernel.Defer(5*time.Millisecond, func() { reqB = mh.IssueRequest(srv, []byte("B")) })
	w.Kernel.Defer(50*time.Millisecond, func() { w.Migrate(1, mss2) })
	w.RunUntil(3 * time.Second)

	for _, req := range []ids.RequestID{reqA, reqB} {
		if !mh.Seen(req) {
			t.Errorf("result of %v never delivered", req)
		}
	}
	if got := w.Stats.ResultsDelivered.Value(); got != 2 {
		t.Errorf("ResultsDelivered = %d, want 2", got)
	}
	if got := w.Stats.DuplicateDeliveries.Value(); got != 0 {
		t.Errorf("DuplicateDeliveries = %d, want 0", got)
	}
	if got := w.Stats.MigCompleted.Value(); got != 1 {
		t.Errorf("MigCompleted = %d, want 1", got)
	}
	if err := w.CheckQuiescent(); err != nil {
		t.Error(err)
	}
}

// TestMigrationLoadDriven exercises the load trigger: the offering host
// carries three proxies, the target none, so AcceptLoad admits the move.
func TestMigrationLoadDriven(t *testing.T) {
	proc := &scriptedProc{delays: []time.Duration{
		2 * time.Second, 2 * time.Second, // pin two extra proxies at mss1
		250 * time.Millisecond, // mh1's request
	}}
	w := migrationWorld(t, proxymig.Policy{LoadDriven: true}, proc)
	mss1, mss2 := ids.MSS(1), ids.MSS(2)
	srv := ids.Server(1)
	mh1 := w.AddMH(1, mss1)
	mh3 := w.AddMH(3, mss1)
	mh4 := w.AddMH(4, mss1)

	var req1 ids.RequestID
	w.Kernel.Defer(0, func() { mh3.IssueRequest(srv, []byte("pin3")) })
	w.Kernel.Defer(1*time.Millisecond, func() { mh4.IssueRequest(srv, []byte("pin4")) })
	w.Kernel.Defer(5*time.Millisecond, func() { req1 = mh1.IssueRequest(srv, []byte("q")) })
	w.Kernel.Defer(50*time.Millisecond, func() { w.Migrate(1, mss2) })
	w.RunUntil(4 * time.Second)

	if !mh1.Seen(req1) {
		t.Error("mh1's result never delivered")
	}
	if got := w.Stats.MigCompleted.Value(); got != 1 {
		t.Errorf("MigCompleted = %d, want 1 (3 proxies vs 0 must move)", got)
	}
	if err := w.CheckQuiescent(); err != nil {
		t.Error(err)
	}
}

// TestMigrationDisabledNeverOffers re-runs the canonical episode with
// the zero policy: the proxy must stay fixed and no migration message
// may appear.
func TestMigrationDisabledNeverOffers(t *testing.T) {
	proc := &scriptedProc{delays: []time.Duration{800 * time.Millisecond, 250 * time.Millisecond}}
	w := migrationWorld(t, proxymig.Policy{}, proc)
	mss1, mss2 := ids.MSS(1), ids.MSS(2)
	srv := ids.Server(1)
	mh := w.AddMH(1, mss1)

	w.Kernel.Defer(0, func() { mh.IssueRequest(srv, []byte("slow")) })
	w.Kernel.Defer(5*time.Millisecond, func() { mh.IssueRequest(srv, []byte("fast")) })
	w.Kernel.Defer(50*time.Millisecond, func() { w.Migrate(1, mss2) })
	w.RunUntil(3 * time.Second)

	if got := w.Stats.MigOffers.Value(); got != 0 {
		t.Errorf("MigOffers = %d, want 0 with migration disabled", got)
	}
	if got := w.Stats.MigMessages.Value(); got != 0 {
		t.Errorf("MigMessages = %d, want 0 with migration disabled", got)
	}
	if got := w.Stats.ProxyCreations[mss2]; got != 0 {
		t.Errorf("placements at mss2 = %d, want 0", got)
	}
	// Both forwards (fast result, slow result) crossed one hop.
	if got := w.Stats.ForwardHops.Value(); got != 2 {
		t.Errorf("ForwardHops = %d, want 2", got)
	}
	if err := w.CheckQuiescent(); err != nil {
		t.Error(err)
	}
}

// TestMigratedAbortMemoKeepsMembers: an abort memo keeps its members when
// its proxy migrates. A batch aborts at mss1 — the abort scrubs mss1's
// ledger — the host moves to mss2, the proxy follows it into a
// reservation there, and the host replays its batch item. The adopted
// proxy must answer with the same abort, members and all, so that mss2
// scrubs the replayed item from its ledger too; otherwise the proxy
// outlives the host's next completed request and the host leaves with a
// live proxy. The same script without the migration is the control.
func TestMigratedAbortMemoKeepsMembers(t *testing.T) {
	for _, migrate := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.NumMSS, cfg.BatchDeadline = 2, 100*time.Millisecond
		// The member's server never answers; later requests are answered at once.
		cfg.ServerProc = &scriptedProc{delays: []time.Duration{time.Hour}}
		var aborts []msg.BatchAbort
		cfg.Observer = func(_ sim.Time, _ netsim.Layer, kind netsim.EventKind, _, to ids.NodeID, m msg.Message) {
			if a, ok := m.(msg.BatchAbort); ok && kind == netsim.EventDelivered && to.Kind == ids.KindMH {
				aborts = append(aborts, a)
			}
		}
		w := NewWorld(cfg)
		h := w.AddMH(1, 1)
		b := h.BeginBatch()
		member := h.BatchRequest(b, 1, []byte("q"))
		w.RunUntil(time.Second) // the deadline aborts the batch at mss1
		w.Migrate(1, 2)
		w.RunUntil(2 * time.Second)
		if migrate {
			pref, _ := w.MSSs[2].PrefOf(1)
			w.MSSs[2].process(ids.MSS(1).Node(), msg.MigOffer{Proxy: pref.Proxy, MH: 1})
			w.RunUntil(3 * time.Second)
			if got := w.Stats.ProxyCreations[2]; got != 1 {
				t.Fatalf("migrate: the proxy was not adopted at mss2 (%d placements)", got)
			}
		}
		h.uplink(h.batches[b].items[0]) // the host replays its item
		w.RunUntil(4 * time.Second)
		if len(aborts) != 2 {
			t.Fatalf("migrate %v: %d aborts reached the host, want 2", migrate, len(aborts))
		}
		for _, a := range aborts {
			if !slices.Contains(a.Reqs, member) {
				t.Errorf("migrate %v: abort %v does not name the member %v", migrate, a, member)
			}
		}
		if out := w.MSSs[2].peek(1).out; len(out) != 0 {
			t.Errorf("migrate %v: mss2's ledger keeps %v", migrate, out)
		}
		req := h.IssueRequest(1, []byte("r"))
		w.RunUntil(5 * time.Second)
		if !h.Seen(req) || w.TotalProxies() != 0 {
			t.Errorf("migrate %v: later request seen %v, %d proxies left", migrate, h.Seen(req), w.TotalProxies())
		}
		w.Leave(1)
		w.RunUntil(6 * time.Second)
		if log := w.ViolationLog(); len(log) != 0 {
			t.Errorf("migrate %v: %q", migrate, log)
		}
	}
}

// TestMigrationCooldownSuppressesSecondOffer verifies MinInterval: a
// fresh proxy may offer at once (its cooldown clock starts backdated),
// but after that first offer — refused by the load check (one proxy at
// each station is no imbalance), so the proxy stays put and forwards
// remotely again — the second qualifying forward falls inside the
// cooldown and must stay silent.
func TestMigrationCooldownSuppressesSecondOffer(t *testing.T) {
	proc := &scriptedProc{delays: []time.Duration{
		2 * time.Second,                                // pin at mss2 (load)
		250 * time.Millisecond, 400 * time.Millisecond, // mh1's two requests
	}}
	w := migrationWorld(t, proxymig.Policy{LoadDriven: true, MinInterval: 10 * time.Second}, proc)
	mss1, mss2 := ids.MSS(1), ids.MSS(2)
	srv := ids.Server(1)
	mh1 := w.AddMH(1, mss1)
	mh2 := w.AddMH(2, mss2)

	w.Kernel.Defer(0, func() { mh2.IssueRequest(srv, []byte("pin")) })
	w.Kernel.Defer(5*time.Millisecond, func() { mh1.IssueRequest(srv, []byte("a")) })
	w.Kernel.Defer(10*time.Millisecond, func() { mh1.IssueRequest(srv, []byte("b")) })
	w.Kernel.Defer(50*time.Millisecond, func() { w.Migrate(1, mss2) })
	w.RunUntil(4 * time.Second)

	if got := w.Stats.MigOffers.Value(); got != 1 {
		t.Errorf("MigOffers = %d, want exactly 1 under the cooldown", got)
	}
	if err := w.CheckQuiescent(); err != nil {
		t.Error(err)
	}
}
