package rdpcore

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"repro/internal/aggstate"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wtp"
)

// TestMHNodeSize pins a mobile host's record at 240 B, as TestLegSize pins
// msg.Leg: every host of a run holds one, and one word more puts it in the
// 256 B size class, which costs region_scale about 1.9 % of
// live_bytes_per_host. A host's timers live in the world's FIFOs and
// sim.Calls, not on the host.
func TestMHNodeSize(t *testing.T) {
	if size := unsafe.Sizeof(MHNode{}); size > 240 {
		t.Errorf("MHNode is %d bytes, budget 240", size)
	}
}

// TestStationSelfSendAllocBudget: a station's message to itself (a proxy
// talking to its own host) rides a recycled record — nothing allocated
// per hop, boxed or a leg sent as a view of the world's slot, which the
// record keeps by value — and the record is released before the message
// is processed, from the world's turn slot, so processing may send again.
func TestStationSelfSendAllocBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumMSS = 2
	w := NewWorld(cfg)
	n := w.MSSs[1]
	// An orphan, boxed and as a leg: processed by counting it.
	orphan := ids.ProxyID{Host: 1, Seq: 9}
	var boxed msg.Message = msg.DelPrefOnly{Proxy: orphan, MH: 7}
	for name, send := range map[string]func(){
		"boxed": func() { n.sendToStation(1, boxed) },
		"leg":   func() { n.sendToStation(1, w.view(msg.AckForward{Proxy: orphan, MH: 7}.Leg())) },
	} {
		step := func() {
			send()
			send()
			w.Run()
		}
		for i := 0; i < 8; i++ {
			step()
		}
		before := w.Stats.OrphanMessages.Value()
		if avg := testing.AllocsPerRun(100, step); avg != 0 {
			t.Errorf("station self-send, %s: %.1f allocs per two hops, budget 0", name, avg)
		}
		if got := w.Stats.OrphanMessages.Value() - before; got != 2*101 {
			t.Errorf("%s: processed %d self-sends, want %d", name, got, 2*101)
		}
	}
}

// TestHostTimerAllocBudget: a host's timer goes through MHNode.after,
// the host's generation door, as a typed record the world's sim.Calls
// recycles — no closure, and no handle or table entry kept to cancel it
// by. The timer is a deadline on a request the host never issued: each
// firing abandons it again, which counts.
func TestHostTimerAllocBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumMSS = 2
	w := NewWorld(cfg)
	h := w.AddMH(1, 1)
	w.Run()
	stray := ids.RequestID{Origin: 1, Seq: 1000}
	step := func() {
		h.after(time.Millisecond, hostTimer{kind: timerDeadline, req: stray})
		w.Run()
	}
	for i := 0; i < 8; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Errorf("host timer armed and fired: %.1f allocs, budget 0", avg)
	}
	if fired := w.Stats.RequestsAbandoned.Value(); fired != 8+201 {
		t.Errorf("%d timers fired, want %d", fired, 8+201)
	}
}

// TestRequestRoundTripAllocBudget pins one warm request's whole cycle —
// issue → proxy created → server → result forwarded → delivered → Ack
// relayed → proxy deleted — in a two-station fault-free world. The
// host's request row reuses its table's window, and the proxy is made
// over the record the last one left in the station's spare stock. The seven messages — Request,
// ServerRequest, ServerResult, ResultForward, ResultDeliver, AckMH,
// AckForward — cross every door as views of the sender's slot, copied by
// value into each frame record and boxed by no hop: nothing keeps them
// and nobody listens. What is left is server.Echo's reply payload.
func TestRequestRoundTripAllocBudget(t *testing.T) {
	w, h := roundTripWorld()
	payload := []byte("q")
	step := func() {
		h.IssueRequest(1, payload)
		w.Run()
	}
	for i := 0; i < 64; i++ {
		step()
	}
	before := w.Stats.ResultsDelivered.Value()
	if avg := testing.AllocsPerRun(200, step); avg > 1 {
		t.Errorf("request round trip: %.2f allocs, budget 1", avg)
	}
	if got := w.Stats.ResultsDelivered.Value() - before; got != 201 {
		t.Errorf("delivered %d results, want 201", got)
	}
	if w.TotalProxies() != 0 || w.Stats.Violations.Value() != 0 {
		t.Errorf("%d proxies left, %d violations", w.TotalProxies(), w.Stats.Violations.Value())
	}
}

// TestFaultTolerantRoundTripAllocBudget is TestRequestRoundTripAllocBudget
// over the E10 stack — wired ARQ, station journal, confirmed registration.
// The ARQ's frames, acks and timers and the journal's writes of the host
// record and the proxy add nothing once warm, and the ARQ keeps a leg in
// its frame unboxed; each new proxy's journal image (its msg.MigState and
// its request list) is the one the last proxy's emptied slot left in the
// station's spare stock. What is left is server.Echo's reply payload.
func TestFaultTolerantRoundTripAllocBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumMSS = 2
	cfg.WiredARQ = netsim.ARQConfig{Enabled: true}
	cfg.Checkpoint = true
	cfg.RegConfirm = true
	w := NewWorld(cfg)
	h := w.AddMH(1, 1)
	w.Run()
	payload := []byte("q")
	step := func() {
		h.IssueRequest(1, payload)
		w.Run()
	}
	for i := 0; i < 64; i++ {
		step()
	}
	before := w.Stats.ResultsDelivered.Value()
	if avg := testing.AllocsPerRun(200, step); avg > 1 {
		t.Errorf("fault-tolerant request round trip: %.2f allocs, budget 1", avg)
	}
	if got := w.Stats.ResultsDelivered.Value() - before; got != 201 {
		t.Errorf("delivered %d results, want 201", got)
	}
	if w.TotalProxies() != 0 || w.Stats.Violations.Value() != 0 || w.CheckpointWrites() == 0 {
		t.Errorf("%d proxies left, %d violations, %d journal writes", w.TotalProxies(), w.Stats.Violations.Value(), w.CheckpointWrites())
	}
}

// TestWindowedRoundTripAllocBudget is TestRequestRoundTripAllocBudget
// over the windowed radio: the sender's ring, each frame's radio record
// and the receiver keep the result's envelope, and the host is shown a
// view of it. What is left is server.Echo's reply: 1. (At the parent,
// whose frames carried boxes: 3 — the reply, the windowed queue's box and
// the frame's message list.)
func TestWindowedRoundTripAllocBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumMSS = 2
	cfg.WirelessWTP = wtp.Config{Enabled: true}
	w := NewWorld(cfg)
	h := w.AddMH(1, 1)
	w.Run()
	payload := []byte("q")
	step := func() {
		h.IssueRequest(1, payload)
		w.Run()
	}
	for i := 0; i < 64; i++ {
		step()
	}
	before := w.Stats.ResultsDelivered.Value()
	if avg := testing.AllocsPerRun(200, step); avg > 1 {
		t.Errorf("windowed request round trip: %.2f allocs, budget 1", avg)
	}
	if got := w.Stats.ResultsDelivered.Value() - before; got != 201 {
		t.Errorf("delivered %d results, want 201", got)
	}
}

// TestRequestTimeoutRoundTripAllocBudget: with RequestTimeout set the host
// keeps each request for its retry chain — its envelope in sent, read by
// the retry timer when it fires — so a round trip costs what it costs
// without (TestRequestRoundTripAllocBudget): server.Echo's reply, 1. (At
// the parent, which boxed the request for sent and the timer: 2.)
func TestRequestTimeoutRoundTripAllocBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumMSS = 2
	cfg.RequestTimeout = time.Second
	w := NewWorld(cfg)
	h := w.AddMH(1, 1)
	w.Run()
	payload := []byte("q")
	step := func() {
		h.IssueRequest(1, payload)
		w.Run() // the retry timer fires after the result, as a no-op
	}
	for i := 0; i < 64; i++ {
		step()
	}
	before := w.Stats.ResultsDelivered.Value()
	if avg := testing.AllocsPerRun(200, step); avg > 1 {
		t.Errorf("request round trip with a retry chain: %.2f allocs, budget 1", avg)
	}
	if got := w.Stats.ResultsDelivered.Value() - before; got != 201 {
		t.Errorf("delivered %d results, want 201", got)
	}
	if len(h.sent) != 0 || w.Stats.RequestRetries.Value() != 0 {
		t.Errorf("%d requests still kept, %d retries", len(h.sent), w.Stats.RequestRetries.Value())
	}
}

// TestQueuedRequestAllocBudget: a request issued while the host is
// inactive waits in the activation queue as an envelope, in the array the
// world lends a host that queues and takes back once the queue is
// flushed, and goes up as a view when the host wakes, so it costs nothing
// beyond its round trip: server.Echo's reply, 1. (At the parent,
// which boxed the request for the queue and made the queue's array
// afresh after each activation: 3.)
func TestQueuedRequestAllocBudget(t *testing.T) {
	w, h := roundTripWorld()
	payload := []byte("q")
	step := func() {
		w.SetActive(1, false)
		h.IssueRequest(1, payload)
		w.SetActive(1, true)
		w.Run()
	}
	for i := 0; i < 64; i++ {
		step()
	}
	before := w.Stats.ResultsDelivered.Value()
	if avg := testing.AllocsPerRun(200, step); avg > 1 {
		t.Errorf("queued request flushed on activation and answered: %.2f allocs, budget 1", avg)
	}
	if got := w.Stats.ResultsDelivered.Value() - before; got != 201 {
		t.Errorf("delivered %d results, want 201", got)
	}
	if len(h.queued) != 0 || w.Stats.Violations.Value() != 0 {
		t.Errorf("%d requests still queued, %d violations", len(h.queued), w.Stats.Violations.Value())
	}
}

// TestWarmHostRequestCycleAllocBudget pins a warm host's requests across
// two cells: it issues a request at station 1, hands off to 2, issues
// there and hands back, each request answered before the move. Each proxy
// is made over its station's spare record, and the request rows reuse
// the table's window; with the aggregated tables
// a hand-off costs nothing (TestHandoffAllocBudget), and a bystander host
// in each cell keeps the stations' pref tables populated. What is left is
// server.Echo's reply payload: one allocation a request.
func TestWarmHostRequestCycleAllocBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumMSS = 2
	cfg.AggregatedState = true
	w := NewWorld(cfg)
	h := w.AddMH(1, 1)
	w.AddMH(2, 1)
	w.AddMH(3, 2)
	w.Run()
	payload := []byte("q")
	cycle := func() {
		h.IssueRequest(1, payload)
		w.Run()
		w.Migrate(1, 2)
		w.Run()
		h.IssueRequest(1, payload)
		w.Run()
		w.Migrate(1, 1)
		w.Run()
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	delivered, handoffs := w.Stats.ResultsDelivered.Value(), w.Stats.Handoffs.Value()
	if avg := testing.AllocsPerRun(200, cycle); avg > 2 {
		t.Errorf("two requests and hand-offs A -> B -> A: %.2f allocs, budget 2 (one a request)", avg)
	}
	if got := w.Stats.ResultsDelivered.Value() - delivered; got != 2*201 {
		t.Errorf("delivered %d results, want %d", got, 2*201)
	}
	if got := w.Stats.Handoffs.Value() - handoffs; got != 2*201 {
		t.Errorf("%d hand-offs, want %d", got, 2*201)
	}
	if w.TotalProxies() != 0 || w.Stats.Violations.Value() != 0 {
		t.Errorf("%d proxies left, %d violations", w.TotalProxies(), w.Stats.Violations.Value())
	}
}

// setSink keeps the reference set of TestAggPrefTableAllocBudget on the
// heap, where the table's sets live.
var setSink *aggstate.Set

// TestAggPrefTableAllocBudget: on a warm aggregated pref table, a host
// with a private proxy takes its pref through {P} → {P, RKpR} → {} for
// nothing — each of P's values has one holder, indexed by the host in
// lone and owner, and the empty pref is a warm shared set — a lone
// host's delete costs nothing either, and a value's second holder costs
// only the set it brings.
func TestAggPrefTableAllocBudget(t *testing.T) {
	tab := newPrefTable(true)
	for mh := ids.MH(1); mh <= 8; mh++ {
		tab.set(mh, msg.Pref{})
	}
	seq := uint32(0)
	next := func() msg.Pref {
		seq++
		return msg.Pref{Proxy: ids.ProxyID{Host: 1, Seq: seq}}
	}
	private := func() {
		p := next()
		tab.set(9, p)
		p.RKpR = seq
		tab.set(9, p)
		tab.set(9, msg.Pref{})
	}
	lone := func() {
		tab.set(12, next())
		tab.delete(12)
	}
	for i := 0; i < 8; i++ {
		private()
		lone()
	}
	if avg := testing.AllocsPerRun(200, private); avg != 0 {
		t.Errorf("private proxy's pref {P} -> {P, RKpR} -> {}: %.1f allocs, budget 0", avg)
	}
	if avg := testing.AllocsPerRun(200, lone); avg != 0 {
		t.Errorf("a lone host's set and delete: %.1f allocs, budget 0", avg)
	}

	shared := func() {
		p := next()
		tab.set(10, p)
		tab.set(11, p)
		tab.delete(10)
		tab.delete(11)
	}
	set := testing.AllocsPerRun(100, func() {
		setSink = &aggstate.Set{}
		setSink.Add(10)
		setSink.Add(11)
	})
	shared()
	if avg := testing.AllocsPerRun(200, shared); avg != set {
		t.Errorf("a value's second holder: %.1f allocs, want its set's %.1f", avg, set)
	}
	if n := tab.len(); n != 9 {
		t.Errorf("%d prefs left, want 9", n)
	}
}

// TestJournalWriteAllocBudget: an event that wrote a host record and a
// proxy — requests, a batch and an abort memo — journals both for nothing:
// each image is written over the stored one, into the slices that one
// owns, the members of each batch and memo included.
func TestJournalWriteAllocBudget(t *testing.T) {
	n, seq, _, _ := journalAliasWorld(t)
	writes := n.w.CheckpointWrites()
	if avg := testing.AllocsPerRun(200, func() {
		n.markHost(1)
		n.markSlot(seq)
		n.flushJournal()
	}); avg != 0 {
		t.Errorf("journal write of a host record and a proxy with a batch and a memo: %.1f allocs, budget 0", avg)
	}
	if got := n.w.CheckpointWrites() - writes; got != 2*201 {
		t.Errorf("%d journal writes counted, want %d", got, 2*201)
	}
}

// TestHandoffAllocBudget pins one warm hand-off cycle — the host moves
// from station 1 to 2 and back while its proxy at 1 holds a request the
// server never answers, so each move is greet, dereg, deregack and
// update_currentLoc (over the wire, then to the proxy's own station) and
// the proxy has nothing to re-forward. A bystander host in each cell
// keeps the stations' pref tables populated, as any busy cell's are. The
// four messages cross every door as views, each arrival record lives in
// the host's recycled transient part and either pref table holds a pref
// by value, so both representations take the cycle for nothing.
func TestHandoffAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name       string
		aggregated bool
		budget     float64
	}{{"faithful", false, 0}, {"aggregated", true, 0}} {
		cfg := DefaultConfig()
		cfg.AggregatedState = c.aggregated
		if avg := handoffCycleAllocs(t, c.name, cfg, false); avg > c.budget {
			t.Errorf("%s: hand-off A -> B -> A: %.2f allocs, budget %v", c.name, avg, c.budget)
		}
	}
}

// TestHandoffTimeoutAllocBudget: TestHandoffAllocBudget's cycle with
// Config.HandoffTimeout set costs what it costs without: each hand-off's
// re-issue timer is a stationTimer record the world's sim.Calls recycles,
// and it fires as a no-op once the hand-off is done. (At the parent the
// timer was a closure inside MSSNode.after's closure: 4 more allocations
// a cycle, 6 faithful and 4 aggregated.)
func TestHandoffTimeoutAllocBudget(t *testing.T) {
	for _, aggregated := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.AggregatedState = aggregated
		name := fmt.Sprintf("aggregated=%v", aggregated)
		without := handoffCycleAllocs(t, name, cfg, false)
		cfg.HandoffTimeout = 500 * time.Millisecond
		with := handoffCycleAllocs(t, name+" with timeout", cfg, false)
		if with > without {
			t.Errorf("%s: hand-off A -> B -> A: %.2f allocs with a hand-off timeout, %.2f without", name, with, without)
		}
	}
}

// handoffCycleAllocs measures TestHandoffAllocBudget's cycle in a world of
// cfg — on pass-through transports when passed — and checks what the
// cycles did.
func handoffCycleAllocs(t *testing.T, name string, cfg Config, passed bool) float64 {
	cfg.NumMSS = 2
	w := passedWorld(cfg, passed)
	w.ReplaceServer(1, netsim.HandlerFunc(func(ids.NodeID, msg.Message) {}))
	h := w.AddMH(1, 1)
	w.AddMH(2, 1)
	w.AddMH(3, 2)
	w.Run()
	h.IssueRequest(1, []byte("q"))
	w.Run()
	cycle := func() {
		w.Migrate(1, 2)
		w.Run()
		w.Migrate(1, 1)
		w.Run()
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	handoffs, updates := w.Stats.Handoffs.Value(), w.Stats.UpdateCurrLocs.Value()
	avg := testing.AllocsPerRun(200, cycle)
	if got := w.Stats.Handoffs.Value() - handoffs; got != 2*201 {
		t.Errorf("%s: %d hand-offs, want %d", name, got, 2*201)
	}
	if got := w.Stats.UpdateCurrLocs.Value() - updates; got != 2*201 {
		t.Errorf("%s: %d update_currentLocs, want %d", name, got, 2*201)
	}
	if w.TotalProxies() != 1 || w.Stats.Retransmissions.Value() != 0 || w.Stats.Violations.Value() != 0 ||
		w.Stats.HandoffReissues.Value() != 0 {
		t.Errorf("%s: %d proxies, %d re-forwards, %d violations, %d re-issued deregs; want 1, 0, 0, 0", name,
			w.TotalProxies(), w.Stats.Retransmissions.Value(), w.Stats.Violations.Value(), w.Stats.HandoffReissues.Value())
	}
	return avg
}

// TestCountingObserverAllocBudget: a Config.Observer that only counts
// costs nothing on the protocol's paths. TestRequestRoundTripAllocBudget's
// round trip and TestHandoffAllocBudget's cycle, with the faithful and the
// aggregated tables, cost exactly as much under a counting Observer as
// under none: the substrates show it every leg as a msg.View, and the
// handlers take the leg as they do unobserved. (At the parent, which
// boxed each leg at its first report, the round trip cost 6 under the
// listener against 1, and the cycle 9 against 2 faithful and 7 against
// 0 aggregated.)
func TestCountingObserverAllocBudget(t *testing.T) {
	events := 0
	counting := func(sim.Time, netsim.Layer, netsim.EventKind, ids.NodeID, ids.NodeID, msg.Message) { events++ }
	roundTrip := func(obs netsim.Observer) float64 {
		cfg := DefaultConfig()
		cfg.NumMSS = 2
		cfg.Observer = obs
		w := NewWorld(cfg)
		h := w.AddMH(1, 1)
		w.Run()
		payload := []byte("q")
		step := func() {
			h.IssueRequest(1, payload)
			w.Run()
		}
		for i := 0; i < 64; i++ {
			step()
		}
		return testing.AllocsPerRun(200, step)
	}
	if with, without := roundTrip(counting), roundTrip(nil); with != without {
		t.Errorf("request round trip: %.2f allocs under a counting observer, %.2f without", with, without)
	}
	for _, aggregated := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.AggregatedState = aggregated
		name := fmt.Sprintf("aggregated=%v", aggregated)
		without := handoffCycleAllocs(t, name, cfg, false)
		cfg.Observer = counting
		with := handoffCycleAllocs(t, name+" observed", cfg, false)
		if with != without {
			t.Errorf("%s: hand-off A -> B -> A: %.2f allocs under a counting observer, %.2f without", name, with, without)
		}
	}
	if events == 0 {
		t.Error("the observer saw no event")
	}
}

// TestPassThroughTransportsAllocBudget: a world on transports that pass
// every message on as they are shown — shaped like the benchmark
// harness's traced substrates, which wrap each send and each handler —
// costs exactly what it costs on the bare substrates: a view crosses the
// wrappers as it crosses the substrates' own doors.
// TestRequestRoundTripAllocBudget's round trip costs 1 either way, and
// TestHandoffAllocBudget's cycle 2 faithful and 0 aggregated. (At the
// parent the wrappers hid the substrates' leg doors, so every leg took the
// boxed fallback: the round trip cost 6, and the cycle 9 and 7.)
func TestPassThroughTransportsAllocBudget(t *testing.T) {
	roundTrip := func(passed bool) float64 {
		cfg := DefaultConfig()
		cfg.NumMSS = 2
		w := passedWorld(cfg, passed)
		h := w.AddMH(1, 1)
		w.Run()
		payload := []byte("q")
		step := func() {
			h.IssueRequest(1, payload)
			w.Run()
		}
		for i := 0; i < 64; i++ {
			step()
		}
		before := w.Stats.ResultsDelivered.Value()
		avg := testing.AllocsPerRun(200, step)
		if got := w.Stats.ResultsDelivered.Value() - before; got != 201 {
			t.Errorf("passed %t: delivered %d results, want 201", passed, got)
		}
		return avg
	}
	if passed, bare := roundTrip(true), roundTrip(false); passed != bare {
		t.Errorf("request round trip: %.2f allocs on pass-through transports, %.2f bare", passed, bare)
	}
	for _, aggregated := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.AggregatedState = aggregated
		name := fmt.Sprintf("aggregated=%v", aggregated)
		bare := handoffCycleAllocs(t, name, cfg, false)
		passed := handoffCycleAllocs(t, name+" passed", cfg, true)
		if passed != bare {
			t.Errorf("%s: hand-off A -> B -> A: %.2f allocs on pass-through transports, %.2f bare", name, passed, bare)
		}
	}
}

// passedWorld is NewWorld(cfg), on pass-through transports when passed.
func passedWorld(cfg Config, passed bool) *World {
	if passed {
		return wrappedWorld(sim.NewKernel(cfg.Seed), cfg, asShown)
	}
	return NewWorld(cfg)
}

// TestOfflineJournalAllocBudget: a disconnected host's offline queue is
// journaled on every change (World.persistOffline), and the rewrite goes
// over the log's own array, each message encoded straight into it — so
// once the log has grown, a rewrite allocates nothing. (At the parent, a
// rewrite of this 16-message queue cost 22: an encoding per message and
// the log regrown from nothing.) The queue's own boxed messages stay.
func TestOfflineJournalAllocBudget(t *testing.T) {
	w := NewWorld(recoveryConfig(1))
	h := w.AddMH(1, 1)
	w.RunUntil(200 * time.Millisecond)
	w.Disconnect(1)
	for i := 0; i < 16; i++ {
		h.IssueRequest(1, []byte{byte(i)})
	}
	writes := w.CheckpointWrites()
	if avg := testing.AllocsPerRun(200, func() { w.persistOffline(1, h.offline) }); avg != 0 {
		t.Errorf("offline journal rewrite of %d messages: %.1f allocs, budget 0", len(h.offline), avg)
	}
	if got := w.CheckpointWrites() - writes; got != 201 {
		t.Errorf("%d journal writes counted, want 201", got)
	}
	w.Reconnect(1)
	w.Run()
	if got := w.Stats.ResultsDelivered.Value(); got != 16 {
		t.Errorf("%d of 16 queued requests delivered after reconnecting", got)
	}
	if _, kept := w.store.offline[1]; kept {
		t.Error("the drained queue's journal was kept")
	}
}
