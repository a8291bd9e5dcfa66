package rdpcore

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/msg"
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
