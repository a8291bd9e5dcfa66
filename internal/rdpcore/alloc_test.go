package rdpcore

import (
	"testing"
	"time"

	"repro/internal/aggstate"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/netsim"
)

// TestStationSelfSendAllocBudget: a station's message to itself (a proxy
// talking to its own host) rides a recycled record — nothing allocated
// per hop, and the record is released before the message is processed,
// so processing may send again.
func TestStationSelfSendAllocBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumMSS = 2
	w := NewWorld(cfg)
	n := w.MSSs[1]
	// An orphan: processed by counting it.
	var m msg.Message = msg.DelPrefOnly{Proxy: ids.ProxyID{Host: 1, Seq: 9}, MH: 7}
	step := func() {
		n.sendToStation(1, m)
		n.sendToStation(1, m)
		w.Run()
	}
	for i := 0; i < 8; i++ {
		step()
	}
	before := w.Stats.OrphanMessages.Value()
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Errorf("station self-send: %.1f allocs per two hops, budget 0", avg)
	}
	if got := w.Stats.OrphanMessages.Value() - before; got != 2*101 {
		t.Errorf("processed %d self-sends, want %d", got, 2*101)
	}
}

// TestHostTimerAllocBudget: a host's timer goes through MHNode.after,
// the host's generation door, for the one closure that carries the
// generation — the kernel event is recycled, and no handle or table
// entry is kept to cancel it by.
func TestHostTimerAllocBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumMSS = 2
	w := NewWorld(cfg)
	h := w.AddMH(1, 1)
	w.Run()
	fired := 0
	fn := func() { fired++ }
	step := func() {
		h.after(time.Millisecond, fn)
		w.Run()
	}
	for i := 0; i < 8; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(200, step); avg > 1 {
		t.Errorf("host timer armed and fired: %.1f allocs, budget 1 (the guard closure)", avg)
	}
	if fired != 8+201 {
		t.Errorf("%d timers fired, want %d", fired, 8+201)
	}
}

// TestRequestRoundTripAllocBudget pins one warm request's whole cycle —
// issue → proxy created → server → result forwarded → delivered → Ack
// relayed → proxy deleted — in a two-station fault-free world. The
// host's request row is amortized table growth and the station's ledger
// keeps its capacity; what is left is the proxy, its requestList's first
// slot (the entry is a value in it), the server's reply payload, and one
// boxing per protocol message put on a wire: Request, ServerRequest,
// ServerResult, ResultForward, ResultDeliver, AckMH, AckForward.
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
	if avg := testing.AllocsPerRun(200, step); avg > 10 {
		t.Errorf("request round trip: %.2f allocs, budget 10", avg)
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
// record and the proxy add nothing once warm; what the stack still adds to
// the fault-free trip's ten is the journal image of each new proxy (its
// msg.MigState and its one-request list), written when the proxy is
// created.
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
	if avg := testing.AllocsPerRun(200, step); avg > 12 {
		t.Errorf("fault-tolerant request round trip: %.2f allocs, budget 12", avg)
	}
	if got := w.Stats.ResultsDelivered.Value() - before; got != 201 {
		t.Errorf("delivered %d results, want 201", got)
	}
	if w.TotalProxies() != 0 || w.Stats.Violations.Value() != 0 || w.CheckpointWrites() == 0 {
		t.Errorf("%d proxies left, %d violations, %d journal writes", w.TotalProxies(), w.Stats.Violations.Value(), w.CheckpointWrites())
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
		p.RKpR = true
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
