package rdpcore

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// quickWorld builds a small world with constant latencies and the given
// overrides applied.
func quickWorld(mutate func(*Config)) *World {
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

func TestSingleRequestNoMigration(t *testing.T) {
	w := quickWorld(nil)
	mh := w.AddMH(1, 1)
	var req ids.RequestID
	w.Kernel.Defer(0, func() { req = mh.IssueRequest(1, []byte("hello")) })
	w.RunUntil(time.Second)

	if !mh.Seen(req) {
		t.Fatal("result not delivered")
	}
	if got := w.Stats.Retransmissions.Value(); got != 0 {
		t.Errorf("Retransmissions = %d, want 0 for a stationary MH", got)
	}
	if got := w.Stats.DuplicateDeliveries.Value(); got != 0 {
		t.Errorf("DuplicateDeliveries = %d, want 0", got)
	}
	if got := w.TotalProxies(); got != 0 {
		t.Errorf("proxy not deleted after the only result was acked: %d", got)
	}
	if got := w.Stats.UpdateCurrLocs.Value(); got != 0 {
		t.Errorf("UpdateCurrLocs = %d, want 0 without migrations", got)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestResultEchoPayload(t *testing.T) {
	w := quickWorld(nil)
	mh := w.AddMH(1, 1)
	var got []byte
	mh.OnResult(func(_ ids.RequestID, payload []byte, dup bool) { got = payload })
	w.Kernel.Defer(0, func() { mh.IssueRequest(1, []byte("ping")) })
	w.RunUntil(time.Second)
	if string(got) != "re:ping" {
		t.Errorf("result payload = %q, want %q", got, "re:ping")
	}
}

func TestDeliveryAcrossManyMigrations(t *testing.T) {
	// The headline guarantee: "eventually every result will be delivered
	// to the requesting MH despite any number of migrations".
	w := quickWorld(func(c *Config) { c.ServerProc = netsim.Constant(400 * time.Millisecond) })
	mh := w.AddMH(1, 1)
	var req ids.RequestID
	w.Kernel.Defer(0, func() { req = mh.IssueRequest(1, []byte("x")) })
	// Migrate every 30ms across all four cells while the server thinks.
	for i := 1; i <= 20; i++ {
		cell := ids.MSS(i%4 + 1)
		w.Kernel.Defer(time.Duration(i)*30*time.Millisecond, func() { w.Migrate(1, cell) })
	}
	w.RunUntil(3 * time.Second)

	if !mh.Seen(req) {
		t.Fatal("result lost despite guaranteed delivery")
	}
	if got := w.Stats.ResultsDelivered.Value(); got != 1 {
		t.Errorf("ResultsDelivered = %d, want 1", got)
	}
	if got := w.Stats.DuplicateDeliveries.Value(); got != 0 {
		t.Errorf("DuplicateDeliveries = %d, want 0 under causal order", got)
	}
	if got := w.Stats.Handoffs.Value(); got != 20 {
		t.Errorf("Handoffs = %d, want 20", got)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInactivityDelaysDelivery(t *testing.T) {
	// MH goes inactive before the result arrives; the wireless forward is
	// lost. On reactivation in the same cell the greet triggers an
	// update_currentLoc and the proxy retransmits (§3.2, §5).
	w := quickWorld(nil)
	mh := w.AddMH(1, 2)
	var req ids.RequestID
	w.Kernel.Defer(0, func() { req = mh.IssueRequest(1, []byte("x")) })
	w.Kernel.Defer(30*time.Millisecond, func() { w.SetActive(1, false) })
	w.Kernel.Defer(500*time.Millisecond, func() { w.SetActive(1, true) })
	w.RunUntil(2 * time.Second)

	if !mh.Seen(req) {
		t.Fatal("result not delivered after reactivation")
	}
	if got := w.Stats.Reactivations.Value(); got != 1 {
		t.Errorf("Reactivations = %d, want 1", got)
	}
	if got := w.Stats.Retransmissions.Value(); got != 1 {
		t.Errorf("Retransmissions = %d, want 1 (first attempt hit an inactive MH)", got)
	}
	if got := w.Stats.WirelessDrops.Value(); got == 0 {
		t.Error("expected the first delivery attempt to be dropped")
	}
	if got := w.TotalProxies(); got != 0 {
		t.Errorf("proxy not retired: %d", got)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestHoldForInactiveOptimization(t *testing.T) {
	// §5 footnote 3: if the MSS can detect the MH is inactive it may keep
	// the result, avoiding the proxy retransmission entirely.
	w := quickWorld(func(c *Config) { c.HoldForInactive = true })
	mh := w.AddMH(1, 2)
	var req ids.RequestID
	w.Kernel.Defer(0, func() { req = mh.IssueRequest(1, []byte("x")) })
	w.Kernel.Defer(30*time.Millisecond, func() { w.SetActive(1, false) })
	w.Kernel.Defer(500*time.Millisecond, func() { w.SetActive(1, true) })
	w.RunUntil(2 * time.Second)

	if !mh.Seen(req) {
		t.Fatal("held result not delivered on reactivation")
	}
	if got := w.Stats.HeldResults.Value(); got != 1 {
		t.Errorf("HeldResults = %d, want 1", got)
	}
	if got := w.Stats.Retransmissions.Value(); got != 0 {
		t.Errorf("Retransmissions = %d, want 0 with the hold optimization", got)
	}
	if got := w.Stats.DuplicateDeliveries.Value(); got != 0 {
		t.Errorf("DuplicateDeliveries = %d, want 0", got)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRequestIssuedWhileInactiveIsQueued(t *testing.T) {
	w := quickWorld(nil)
	mh := w.AddMH(1, 1)
	var req ids.RequestID
	w.Kernel.Defer(0, func() { w.SetActive(1, false) })
	w.Kernel.Defer(10*time.Millisecond, func() { req = mh.IssueRequest(1, []byte("q")) })
	w.Kernel.Defer(300*time.Millisecond, func() { w.SetActive(1, true) })
	w.RunUntil(2 * time.Second)
	if !mh.Seen(req) {
		t.Fatal("queued request not answered after activation")
	}
}

func TestWakeUpInDifferentCell(t *testing.T) {
	// The MH deactivates, is carried to another cell, and wakes up there:
	// the greet names the old station, so a full hand-off runs (§2).
	w := quickWorld(func(c *Config) { c.ServerProc = netsim.Constant(300 * time.Millisecond) })
	mh := w.AddMH(1, 1)
	var req ids.RequestID
	w.Kernel.Defer(0, func() { req = mh.IssueRequest(1, []byte("x")) })
	w.Kernel.Defer(20*time.Millisecond, func() { w.SetActive(1, false) })
	w.Kernel.Defer(40*time.Millisecond, func() { w.Migrate(1, 3) }) // carried while asleep
	w.Kernel.Defer(600*time.Millisecond, func() { w.SetActive(1, true) })
	w.RunUntil(3 * time.Second)

	if !mh.Seen(req) {
		t.Fatal("result not delivered after waking in a new cell")
	}
	if got := w.Stats.Handoffs.Value(); got != 1 {
		t.Errorf("Handoffs = %d, want 1", got)
	}
	if got := w.Stats.Reactivations.Value(); got != 0 {
		t.Errorf("Reactivations = %d, want 0 (wake-up was in a new cell)", got)
	}
	if !w.MSSs[3].Responsible(1) {
		t.Error("mss3 should be responsible after the wake-up hand-off")
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestExactlyOnceUnderCausalOrder(t *testing.T) {
	// §5: with causal wired delivery (and reliable wireless), delivery is
	// exactly-once even when the MH acks and immediately migrates. Without
	// the causal layer the update_currentLoc can overtake the forwarded
	// Ack and cause duplicates. Run the same adversarial schedule both
	// ways and compare.
	type outcome struct {
		delivered, duplicates, violations int64
	}
	run := func(causal bool) outcome {
		w := quickWorld(func(c *Config) {
			c.Causal = causal
			c.NumMSS = 6
			// High-variance wired latency creates overtaking opportunities.
			c.WiredLatency = netsim.Uniform{Lo: time.Millisecond, Hi: 40 * time.Millisecond}
			c.ServerProc = netsim.Constant(30 * time.Millisecond)
			c.Seed = 77
		})
		mh := w.AddMH(1, 1)
		// After every result delivery, migrate immediately: the Ack and
		// the hand-off race through the wired network.
		next := ids.MSS(2)
		mh.OnResult(func(ids.RequestID, []byte, bool) {
			cell := next
			next = next%6 + 1
			w.Kernel.Defer(100*time.Microsecond, func() { w.Migrate(1, cell) })
		})
		issue := func() { mh.IssueRequest(1, []byte("x")) }
		for i := 0; i < 400; i++ {
			w.Kernel.Defer(time.Duration(i)*120*time.Millisecond, issue)
		}
		w.RunUntil(2 * time.Minute)
		if err := w.CheckInvariants(); err != nil && causal {
			t.Errorf("causal run violated invariants: %v", err)
		}
		return outcome{
			delivered:  w.Stats.ResultsDelivered.Value(),
			duplicates: w.Stats.DuplicateDeliveries.Value(),
			violations: w.Stats.Violations.Value(),
		}
	}

	causal := run(true)
	if causal.delivered != 400 {
		t.Errorf("causal: delivered %d of 400", causal.delivered)
	}
	if causal.duplicates != 0 {
		t.Errorf("duplicates under causal order = %d, want 0", causal.duplicates)
	}
	if causal.violations != 0 {
		t.Errorf("violations under causal order = %d, want 0", causal.violations)
	}
	// Without assumption 1 the §5 exactly-once argument collapses: the
	// update_currentLoc can overtake the forwarded Ack (duplicates), and
	// a late del-pref can even let the proxy die with a pending request
	// (losses / violations). Any of these anomalies demonstrates the
	// dependence.
	ablation := run(false)
	anomalies := ablation.duplicates + ablation.violations + (400 - ablation.delivered)
	if anomalies == 0 {
		t.Error("ablation produced no anomalies; the adversarial schedule is not exercising the race")
	}
}

func TestAckPriorityReducesIgnoredAcks(t *testing.T) {
	// §3.1: with per-message processing delay, giving Acks priority over
	// hand-off work means an Ack queued behind a Dereg still gets
	// forwarded. Compare ignored-ack counts with the rule on and off.
	run := func(priority bool) (ignored, dups int64) {
		w := quickWorld(func(c *Config) {
			c.AckPriority = priority
			c.ProcDelay = 4 * time.Millisecond
			c.NumMSS = 6
			c.WirelessLatency = netsim.Uniform{Lo: 2 * time.Millisecond, Hi: 30 * time.Millisecond}
			c.ServerProc = netsim.Constant(20 * time.Millisecond)
			c.Seed = 99
		})
		mh := w.AddMH(1, 1)
		next := ids.MSS(2)
		mh.OnResult(func(ids.RequestID, []byte, bool) {
			cell := next
			next = next%6 + 1
			w.Kernel.Defer(0, func() { w.Migrate(1, cell) })
		})
		issue := func() { mh.IssueRequest(1, []byte("x")) }
		for i := 0; i < 300; i++ {
			w.Kernel.Defer(time.Duration(i)*150*time.Millisecond, issue)
		}
		w.RunUntil(2 * time.Minute)
		return w.Stats.IgnoredAcks.Value(), w.Stats.DuplicateDeliveries.Value()
	}

	ignWith, _ := run(true)
	ignWithout, _ := run(false)
	if ignWith >= ignWithout {
		t.Errorf("ack priority did not reduce ignored acks: with=%d without=%d", ignWith, ignWithout)
	}
}

func TestClientRetryRecoversFromWirelessLoss(t *testing.T) {
	// A stationary MH on a lossy link: RDP alone has no trigger to
	// retransmit (no migrations), so the client-side retry shim must
	// recover both lost requests and lost results.
	w := quickWorld(func(c *Config) {
		c.WirelessLoss = 0.4
		c.RequestTimeout = 300 * time.Millisecond
		c.Seed = 5
	})
	mh := w.AddMH(1, 1)
	reqs := make([]ids.RequestID, 0, 20)
	w.Kernel.Defer(0, func() {
		for i := 0; i < 20; i++ {
			reqs = append(reqs, mh.IssueRequest(1, []byte("x")))
		}
	})
	w.RunUntil(time.Minute)
	for _, r := range reqs {
		if !mh.Seen(r) {
			t.Errorf("request %v never answered despite retries", r)
		}
	}
	if w.Stats.RequestRetries.Value() == 0 {
		t.Error("no retries recorded under 40% loss; shim inactive?")
	}
}

func TestLeaveWithPendingRequestIsViolation(t *testing.T) {
	// Assumption 6: an MH only leaves after acknowledging everything.
	// Leaving with a live proxy must be flagged.
	w := quickWorld(func(c *Config) { c.ServerProc = netsim.Constant(time.Second) })
	mh := w.AddMH(1, 1)
	w.Kernel.Defer(0, func() { mh.IssueRequest(1, []byte("x")) })
	w.Kernel.Defer(100*time.Millisecond, func() { w.Leave(1) })
	w.RunUntil(3 * time.Second)
	if got := w.Stats.Violations.Value(); got == 0 {
		t.Error("leave with pending request not flagged as violation")
	}
	// The breach is recorded with its context.
	log := w.ViolationLog()
	if want := "host left with a live proxy at 110ms: mh1 proxy(mss1#1) req(nil)"; len(log) != 1 || log[0] != want {
		t.Errorf("violation log %q, want exactly %q", log, want)
	}
}

func TestCleanLeaveIsNoViolation(t *testing.T) {
	w := quickWorld(nil)
	mh := w.AddMH(1, 1)
	var req ids.RequestID
	w.Kernel.Defer(0, func() { req = mh.IssueRequest(1, []byte("x")) })
	w.Kernel.Defer(1500*time.Millisecond, func() { w.Leave(1) })
	w.RunUntil(3 * time.Second)
	if !mh.Seen(req) {
		t.Fatal("result not delivered")
	}
	if got := w.Stats.Violations.Value(); got != 0 {
		t.Errorf("Violations = %d, want 0 for a clean leave", got)
	}
	if mh.Joined() {
		t.Error("MH still joined after leave")
	}
}

func TestOverheadAccounting(t *testing.T) {
	// §5: overhead is (1) one update_currentLoc per migration or
	// reactivation of an MH with a proxy, and (2) one extra Ack per
	// acknowledged result. Verify the exact counts on a deterministic
	// schedule where the proxy exists throughout.
	w := quickWorld(func(c *Config) { c.ServerProc = netsim.Constant(2 * time.Second) })
	mh := w.AddMH(1, 1)
	var req ids.RequestID
	w.Kernel.Defer(0, func() { req = mh.IssueRequest(1, []byte("x")) })
	// Three migrations and one inactivity cycle, all while the request
	// is pending (server busy until t=2s).
	w.Kernel.Defer(100*time.Millisecond, func() { w.Migrate(1, 2) })
	w.Kernel.Defer(400*time.Millisecond, func() { w.Migrate(1, 3) })
	w.Kernel.Defer(700*time.Millisecond, func() { w.SetActive(1, false) })
	w.Kernel.Defer(900*time.Millisecond, func() { w.SetActive(1, true) })
	w.Kernel.Defer(1200*time.Millisecond, func() { w.Migrate(1, 4) })
	w.RunUntil(5 * time.Second)

	if !mh.Seen(req) {
		t.Fatal("result not delivered")
	}
	// 3 migrations + 1 reactivation = 4 update_currentLoc.
	if got := w.Stats.UpdateCurrLocs.Value(); got != 4 {
		t.Errorf("UpdateCurrLocs = %d, want 4 (3 migrations + 1 reactivation)", got)
	}
	// One result, one ack relayed to the proxy.
	if got := w.Stats.AckForwards.Value(); got != 1 {
		t.Errorf("AckForwards = %d, want 1", got)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestHandoffStateBytesConstant(t *testing.T) {
	// E6 base fact: RDP's hand-off state (the pref inside DeregAck) has
	// constant size regardless of pending-request count.
	bytesFor := func(pending int) int64 {
		w := quickWorld(func(c *Config) { c.ServerProc = netsim.Constant(5 * time.Second) })
		mh := w.AddMH(1, 1)
		w.Kernel.Defer(0, func() {
			for i := 0; i < pending; i++ {
				mh.IssueRequest(1, []byte("payload-of-some-size"))
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
	if small != large {
		t.Errorf("hand-off state grew with pending requests: %d vs %d bytes", small, large)
	}
}

func TestMigrateToSameCellIsNoop(t *testing.T) {
	w := quickWorld(nil)
	w.AddMH(1, 1)
	w.Kernel.Defer(0, func() { w.Migrate(1, 1) })
	w.RunUntil(100 * time.Millisecond)
	if got := w.Stats.Handoffs.Value(); got != 0 {
		t.Errorf("Handoffs = %d, want 0", got)
	}
}

func TestAddMHValidation(t *testing.T) {
	w := quickWorld(nil)
	w.AddMH(1, 1)
	for name, fn := range map[string]func(){
		"duplicate":    func() { w.AddMH(1, 1) },
		"unknown cell": func() { w.AddMH(2, 99) },
		"invalid id":   func() { w.AddMH(0, 1) },
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

func TestProxyPlacementFollowsRequestOrigin(t *testing.T) {
	// §3.3 / §4: the proxy is created wherever the MH currently is, so
	// consecutive request bursts from different cells place proxies on
	// different stations — the load-balancing property.
	w := quickWorld(nil)
	mh := w.AddMH(1, 1)
	var r1, r2 ids.RequestID
	w.Kernel.Defer(0, func() { r1 = mh.IssueRequest(1, []byte("a")) })
	// After r1 completes (proxy deleted), move and issue again.
	w.Kernel.Defer(500*time.Millisecond, func() { w.Migrate(1, 3) })
	w.Kernel.Defer(800*time.Millisecond, func() { r2 = mh.IssueRequest(1, []byte("b")) })
	w.RunUntil(2 * time.Second)

	if !mh.Seen(r1) || !mh.Seen(r2) {
		t.Fatal("results not delivered")
	}
	if got := w.Stats.ProxyCreations[1]; got != 1 {
		t.Errorf("proxy creations at mss1 = %d, want 1", got)
	}
	if got := w.Stats.ProxyCreations[3]; got != 1 {
		t.Errorf("proxy creations at mss3 = %d, want 1", got)
	}
}

func TestLeaveAndRejoinLifecycle(t *testing.T) {
	w := quickWorld(nil)
	mh := w.AddMH(1, 1)
	var r1, r2 ids.RequestID
	w.Schedule(0, func() { r1 = mh.IssueRequest(1, []byte("before")) })
	w.Schedule(time.Second, func() { w.Leave(1) })
	// Rejoin in a different cell and use the service again.
	w.Schedule(2*time.Second, func() { w.Rejoin(1, 3) })
	w.Schedule(2500*time.Millisecond, func() { r2 = mh.IssueRequest(1, []byte("after")) })
	w.RunUntil(5 * time.Second)

	if !mh.Seen(r1) || !mh.Seen(r2) {
		t.Fatalf("deliveries: before=%t after=%t, want both", mh.Seen(r1), mh.Seen(r2))
	}
	if got := w.Stats.Violations.Value(); got != 0 {
		t.Errorf("Violations = %d, want 0 for clean leave/rejoin", got)
	}
	if !w.MSSs[3].Responsible(1) {
		t.Error("rejoined host not registered in its new cell")
	}
	if w.MSSs[1].Responsible(1) {
		t.Error("old cell still responsible after leave")
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// mhSends counts, through a Config.Observer, the wireless frames each
// host sends, by message kind.
type mhSends map[ids.MH]map[msg.Kind]int

func (c mhSends) observe(_ sim.Time, layer netsim.Layer, kind netsim.EventKind, from, _ ids.NodeID, m msg.Message) {
	if layer != netsim.LayerWireless || kind != netsim.EventSent || from.Kind != ids.KindMH {
		return
	}
	if c[from.MH()] == nil {
		c[from.MH()] = map[msg.Kind]int{}
	}
	c[from.MH()][m.Kind()]++
}

// total is how many frames h sent, of every kind.
func (c mhSends) total(h ids.MH) int {
	n := 0
	for _, k := range c[h] {
		n += k
	}
	return n
}

// TestDetachAttachLeaksNoKernelTimers holds DetachMH's timer door across
// detach/attach cycles. DetachMH voids every timer the host armed —
// refresh beacon, per-request retry chains, batch retries — so they
// fire as no-ops: while detached the host sends nothing, and once they
// have fired the pending set is back at the same baseline every cycle.
// A timer that escaped the door would send a retry or a greet from the
// detached host, and a single untracked Scheduler.Defer in any MH path
// would grow the pending set by one event per cycle.
func TestDetachAttachLeaksNoKernelTimers(t *testing.T) {
	sends := mhSends{}
	w := quickWorld(func(cfg *Config) {
		cfg.GreetRefresh = 100 * time.Millisecond
		cfg.RequestTimeout = 300 * time.Millisecond
		// The server never answers inside the horizon, so the retry
		// chains and the batch retry stay permanently armed.
		cfg.ServerProc = netsim.Constant(time.Hour)
		cfg.Observer = sends.observe
	})
	kernel := w.Kernel.(*sim.Kernel) // virtual worlds always run on the event kernel
	mh := w.AddMH(1, 1)
	w.Schedule(0, func() {
		mh.IssueRequest(1, []byte("slow"))
		b := mh.BeginBatch()
		mh.BatchRequest(b, 1, []byte("member"))
		mh.CommitBatch(b)
	})
	at := 500 * time.Millisecond
	w.RunUntil(at)

	baseline := -1
	for cycle := 0; cycle < 4; cycle++ {
		h, active := w.DetachMH(1)
		if !active {
			t.Fatalf("cycle %d: host detached inactive", cycle)
		}
		// Drain the frames in flight at detach time and let every voided
		// timer fire; what remains must be cycle-invariant (only the
		// parked server completions).
		sent, retries := sends.total(1), w.Stats.RequestRetries.Value()
		at += 2 * time.Second
		w.RunUntil(at)
		if n := sends.total(1) - sent; n != 0 {
			t.Fatalf("cycle %d: the detached host sent %d frames", cycle, n)
		}
		if n := w.Stats.RequestRetries.Value() - retries; n != 0 {
			t.Fatalf("cycle %d: the detached host retried %d times", cycle, n)
		}
		if pend := kernel.Pending(); baseline < 0 {
			baseline = pend
		} else if pend != baseline {
			t.Fatalf("cycle %d: %d kernel events pending after detach, want %d — timers leak across detach/attach",
				cycle, pend, baseline)
		}
		w.AttachMH(h, ids.MSS(cycle%4+1), true)
		at += time.Second
		w.RunUntil(at)
	}
}

// TestRejoinVoidsOldBeacon: the refresh beacon a host armed before
// Leave fires as a no-op, so after Rejoin only the new membership's
// chain greets — k periods carry k greets, not 2k.
func TestRejoinVoidsOldBeacon(t *testing.T) {
	const period, k = 100 * time.Millisecond, 5
	sends := mhSends{}
	w := quickWorld(func(cfg *Config) {
		cfg.GreetRefresh = period
		cfg.Observer = sends.observe
	})
	w.AddMH(1, 1)
	// Leave between two beacons, so one is armed, and rejoin before it
	// is due.
	w.RunUntil(1050 * time.Millisecond)
	w.Leave(1)
	w.RunUntil(1060 * time.Millisecond)
	w.Rejoin(1, 2)
	before := sends[1][msg.KindGreet]
	w.RunUntil(1060*time.Millisecond + k*period + period/2)
	if got := sends[1][msg.KindGreet] - before; got != k {
		t.Errorf("%d greets in the %d periods after Rejoin, want %d", got, k, k)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRejoinValidation(t *testing.T) {
	w := quickWorld(nil)
	w.AddMH(1, 1)
	for name, fn := range map[string]func(){
		"still joined": func() { w.Rejoin(1, 2) },
		"unknown MH":   func() { w.Rejoin(9, 1) },
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

func TestAccessorsAndLoadVectors(t *testing.T) {
	w := quickWorld(nil)
	mh := w.AddMH(1, 2)
	if mh.ID() != 1 {
		t.Errorf("MH.ID = %v", mh.ID())
	}
	w.RunUntil(50 * time.Millisecond)
	if mh.RespMss() != 2 {
		t.Errorf("RespMss = %v, want mss2", mh.RespMss())
	}
	if w.MSSs[2].ID() != 2 {
		t.Errorf("MSS.ID = %v", w.MSSs[2].ID())
	}
	w.Schedule(0, func() { mh.IssueRequest(1, []byte("x")) })
	w.RunUntil(time.Second)
	stations := w.StationList()
	hosts := w.Stats.HostLoads(stations)
	forwards := w.Stats.ForwardLoads(stations)
	if len(hosts) != len(stations) || len(forwards) != len(stations) {
		t.Fatal("load vector lengths wrong")
	}
	var totalF float64
	for _, f := range forwards {
		totalF += f
	}
	if totalF == 0 {
		t.Error("no forwarding load recorded")
	}
	pref, _ := w.MSSs[2].PrefOf(1)
	if p := w.MSSs[2].ProxyByID(pref.Proxy); p != nil {
		if p.ID() != pref.Proxy {
			t.Errorf("Proxy.ID = %v, want %v", p.ID(), pref.Proxy)
		}
	}
}

// TestMHRetransmitGuards: the request-timeout retry re-sends a request
// while its result is pending, holds its fire while the host cannot
// transmit, and stops once the result is in.
func TestMHRetransmitGuards(t *testing.T) {
	w := quickWorld(func(c *Config) {
		c.ServerProc = netsim.Constant(time.Second)
		c.RequestTimeout = 100 * time.Millisecond
	})
	mh := w.AddMH(1, 1)
	var req ids.RequestID
	w.Schedule(0, func() { req = mh.IssueRequest(1, []byte("x")) })
	w.RunUntil(150 * time.Millisecond)
	if got := w.Stats.RequestRetries.Value(); got != 1 {
		t.Fatalf("RequestRetries = %d after one timeout, want 1", got)
	}
	w.Schedule(0, func() { w.SetActive(1, false) })
	w.RunUntil(550 * time.Millisecond)
	if got := w.Stats.RequestRetries.Value(); got != 1 {
		t.Fatalf("RequestRetries while inactive = %d, want still 1", got)
	}
	w.Schedule(0, func() { w.SetActive(1, true) })
	w.RunUntil(3 * time.Second)
	retries := w.Stats.RequestRetries.Value()
	if !mh.Seen(req) || retries < 2 {
		t.Fatalf("after waking: seen %v, %d retries; want the result and the retry chain resumed", mh.Seen(req), retries)
	}
	w.RunUntil(5 * time.Second)
	if got := w.Stats.RequestRetries.Value(); got != retries {
		t.Errorf("%d retries after the result arrived", got-retries)
	}
}

func TestReplaceServerUnknownPanics(t *testing.T) {
	w := quickWorld(nil)
	defer func() {
		if recover() == nil {
			t.Error("replacing an unknown server must panic")
		}
	}()
	w.ReplaceServer(99, nil)
}

func TestRingTopologyLatency(t *testing.T) {
	// Deliveries between near and far stations reflect the ring distance.
	w := quickWorld(func(c *Config) {
		c.NumMSS = 6
		c.WiredPairLatency = netsim.RingLatency(6, time.Millisecond, 4*time.Millisecond)
		c.ServerProc = netsim.Constant(time.Hour) // keep the proxy pending
	})
	mh := w.AddMH(1, 1)
	w.Schedule(0, func() { mh.IssueRequest(1, []byte("x")) })
	w.RunUntil(100 * time.Millisecond)
	// Migrate to the opposite side of the ring: the dereg+deregack
	// round trip covers ring distance 3 each way at 1+3*4=13ms per hop.
	w.Schedule(0, func() { w.Migrate(1, 4) })
	w.RunUntil(2 * time.Second)
	if got := w.Stats.Handoffs.Value(); got != 1 {
		t.Fatalf("Handoffs = %d", got)
	}
	// HandoffLatency runs greet-processing -> deregack: two wired hops
	// across ring distance 3 at 1+3*4 = 13ms each.
	if got := w.Stats.HandoffLatency.Max(); got != 26*time.Millisecond {
		t.Errorf("hand-off latency = %v, want 26ms over the ring", got)
	}
}
