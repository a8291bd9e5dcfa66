package netsim

import (
	"maps"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/wtp"
)

// dropKey is one (layer, reason) pair of the drop accounting.
type dropKey struct {
	layer Layer
	kind  EventKind
}

// TestDropHookMatchesObserver: the drop hook is told of exactly the drops
// an Observer sees — random and injected loss, unreachable destinations
// and shed frames, on both layers, through the wired ARQ and the windowed
// radio — so accounting that moved off the Observer onto the hook counts
// the same.
func TestDropHookMatchesObserver(t *testing.T) {
	k := sim.NewKernel(1)
	hooked, observed := map[dropKey]int{}, map[dropKey]int{}
	hook := func(l Layer, kind EventKind) { hooked[dropKey{l, kind}]++ }
	obs := func(_ sim.Time, l Layer, kind EventKind, _, _ ids.NodeID, _ msg.Message) {
		if kind.IsDrop() {
			observed[dropKey{l, kind}]++
		}
	}
	a, b := ids.MSS(1).Node(), ids.MSS(2).Node()
	down := 0
	for _, cfg := range []WiredConfig{
		{ARQ: ARQConfig{Enabled: true, RTO: 10 * time.Millisecond}},
		{}, // without ARQ: a dropped or shed frame stays lost
	} {
		cfg.Latency, cfg.Causal, cfg.QueueLimit, cfg.OnDrop = Constant(time.Millisecond), true, 3, hook
		cfg.Faults = &seededFaults{rng: k.RNG().Fork()}
		cfg.Down = func(n ids.NodeID) bool { down++; return n == b && down%7 == 0 }
		w := NewWired(k, []ids.NodeID{a, b}, cfg, obs)
		w.Register(a, nopHandler())
		w.Register(b, nopHandler())
		for i := 0; i < 40; i++ {
			w.Send(a, b, msg.Dereg{MH: ids.MH(i)})
		}
		k.Run()
	}
	r := NewWireless(k, WirelessConfig{
		Latency:    Constant(time.Millisecond),
		LossProb:   0.2,
		Reachable:  func(_ ids.MSS, mh ids.MH) bool { return mh != 8 },
		QueueLimit: 2,
		WTP:        wtp.Config{Enabled: true},
		OnDrop:     hook,
	}, obs)
	r.RegisterMSS(1, nopHandler())
	r.RegisterMH(7, nopHandler())
	r.RegisterMH(8, nopHandler())
	for i := 0; i < 40; i++ {
		r.SendDownlink(1, ids.MH(7+i%2), msg.ResultDeliver{Req: ids.RequestID{Origin: 7, Seq: uint32(i + 1)}})
		r.SendUplink(7, 1, msg.AckMH{MH: 7})
	}
	k.Run()

	if !maps.Equal(hooked, observed) {
		t.Fatalf("drop hook counted %v, observer saw %v", hooked, observed)
	}
	for _, want := range []dropKey{
		{LayerWired, EventDroppedLoss}, {LayerWired, EventShed}, {LayerWired, EventDroppedUnreachable},
		{LayerWireless, EventDroppedLoss}, {LayerWireless, EventShed}, {LayerWireless, EventDroppedUnreachable},
	} {
		if hooked[want] == 0 {
			t.Errorf("no %v %v drop exercised: %v", want.layer, want.kind, hooked)
		}
	}
}
