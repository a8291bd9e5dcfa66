package netsim

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/wtp"
)

func TestWirelessWTPDeliversInOrderUnderLoss(t *testing.T) {
	k := sim.NewKernel(7)
	wd := &world{loc: map[ids.MH]ids.MSS{7: 1}, active: map[ids.MH]bool{7: true}}
	w := NewWireless(k, WirelessConfig{
		Latency:   Constant(5 * time.Millisecond),
		LossProb:  0.2,
		Reachable: wd.reachable,
		WTP:       wtp.Config{Enabled: true, InitialRTO: 40 * time.Millisecond},
	}, nil)
	var got []msg.Message
	w.RegisterMH(7, HandlerFunc(func(_ ids.NodeID, m msg.Message) { got = append(got, msg.Keep(m)) }))
	const n = 200
	for i := 0; i < n; i++ {
		seq := uint32(i + 1)
		// Spread over time so coalescing closes many frames, each a
		// separate loss trial.
		k.Defer(time.Duration(i)*time.Millisecond, func() {
			w.SendDownlink(1, 7, msg.ResultDeliver{Req: ids.RequestID{Origin: 7, Seq: seq}})
		})
	}
	k.Run()
	if len(got) != n {
		t.Fatalf("delivered %d messages, want %d (windowed link must repair 20%% loss)", len(got), n)
	}
	for i, m := range got {
		if rd := m.(msg.ResultDeliver); rd.Req.Seq != uint32(i+1) {
			t.Fatalf("got[%d] seq %d, want %d (out of order)", i, rd.Req.Seq, i+1)
		}
	}
	retransmits, _, _, frames, msgs, _ := w.WTPStats()
	if retransmits == 0 {
		t.Error("expected retransmissions at 20% loss")
	}
	if msgs != n {
		t.Errorf("MsgsFramed = %d, want %d", msgs, n)
	}
	if frames >= n {
		t.Errorf("FramesSent = %d: no coalescing happened over %d messages", frames, n)
	}
}

func TestWirelessWTPControlBypassesWindow(t *testing.T) {
	k := sim.NewKernel(1)
	wd := &world{loc: map[ids.MH]ids.MSS{7: 1}, active: map[ids.MH]bool{7: true}}
	w := NewWireless(k, WirelessConfig{
		Latency:   Constant(time.Millisecond),
		Reachable: wd.reachable,
		WTP:       wtp.Config{Enabled: true, CoalesceDelay: 50 * time.Millisecond},
	}, nil)
	var got []msg.Message
	w.RegisterMH(7, HandlerFunc(func(_ ids.NodeID, m msg.Message) { got = append(got, msg.Keep(m)) }))
	w.SendDownlink(1, 7, msg.RegConfirm{MH: 7})
	k.RunUntil(sim.Time(10 * time.Millisecond))
	// The control message must arrive on the beacon path immediately,
	// not sit in a 50ms coalescing buffer.
	if len(got) != 1 {
		t.Fatalf("delivered %d, want the reg-confirm on the beacon path", len(got))
	}
	if _, _, _, frames, _, _ := w.WTPStats(); frames != 0 {
		t.Errorf("control traffic entered the windowed transport: %d frames", frames)
	}
}

func TestWirelessWTPStopsAtUnreachableMH(t *testing.T) {
	k := sim.NewKernel(3)
	wd := &world{loc: map[ids.MH]ids.MSS{7: 2}, active: map[ids.MH]bool{7: true}}
	w := NewWireless(k, WirelessConfig{
		Latency:   Constant(time.Millisecond),
		Reachable: wd.reachable,
		WTP:       wtp.Config{Enabled: true, InitialRTO: 5 * time.Millisecond, MaxRetries: 3, CoalesceDelay: -1},
	}, nil)
	var got []msg.Message
	w.RegisterMH(7, HandlerFunc(func(_ ids.NodeID, m msg.Message) { got = append(got, msg.Keep(m)) }))
	// MH 7 lives in cell 2; station 1's link can never reach it.
	w.SendDownlink(1, 7, msg.ResultDeliver{Req: ids.RequestID{Origin: 7, Seq: 1}})
	k.Run()
	if len(got) != 0 {
		t.Fatal("delivered across an unreachable link")
	}
	if _, _, resets, _, _, _ := w.WTPStats(); resets != 1 {
		t.Errorf("resets = %d, want 1 (link must give up after MaxRetries)", resets)
	}
	// Once the MH shows up in the right cell, the post-reset epoch works.
	wd.loc[7] = 1
	w.SendDownlink(1, 7, msg.ResultDeliver{Req: ids.RequestID{Origin: 7, Seq: 2}})
	k.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d after reset, want 1", len(got))
	}
}
