package rdpcore

import (
	"testing"

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
