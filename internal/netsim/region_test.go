package netsim

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
)

func TestRegionLinkRoutesLocalAndRemote(t *testing.T) {
	k := sim.NewKernel(1)
	a, b := ids.MSS(1).Node(), ids.MSS(2).Node()
	remote := ids.MSS(3).Node()
	local := NewWired(k, []ids.NodeID{a, b}, WiredConfig{Latency: Constant(2 * time.Millisecond), Causal: true}, nil)

	var out []CrossFrame
	l := NewRegionLink(k, RegionLinkConfig{
		Local:        local,
		LocalMembers: []ids.NodeID{a, b},
		Latency:      Constant(2 * time.Millisecond),
		Lookahead:    2 * time.Millisecond,
		Emit:         func(f CrossFrame) { out = append(out, f) },
	}, nil)

	var gotLocal []msg.Message
	l.Register(a, HandlerFunc(func(from ids.NodeID, m msg.Message) {}))
	l.Register(b, HandlerFunc(func(from ids.NodeID, m msg.Message) { gotLocal = append(gotLocal, msg.Keep(m)) }))

	l.Send(a, b, &msg.Greet{MH: 7, OldMSS: 1})
	l.Send(a, remote, &msg.Greet{MH: 7, OldMSS: 1})
	k.Run()

	if len(gotLocal) != 1 {
		t.Fatalf("local delivery count = %d, want 1", len(gotLocal))
	}
	if len(out) != 1 {
		t.Fatalf("emitted frames = %d, want 1", len(out))
	}
	f := out[0]
	if f.To != remote || f.Arrival != sim.Time(2*time.Millisecond) {
		t.Fatalf("frame = %+v, want arrival 2ms at %v", f, remote)
	}
}

func TestRegionLinkDeliverAndObserver(t *testing.T) {
	k := sim.NewKernel(1)
	a := ids.MSS(1).Node()
	local := NewWired(k, []ids.NodeID{a}, WiredConfig{}, nil)
	var events []EventKind
	l := NewRegionLink(k, RegionLinkConfig{
		Local:        local,
		LocalMembers: []ids.NodeID{a},
		Latency:      Constant(5 * time.Millisecond),
		Lookahead:    5 * time.Millisecond,
		Emit:         func(CrossFrame) {},
	}, func(at sim.Time, layer Layer, kind EventKind, from, to ids.NodeID, m msg.Message) {
		events = append(events, kind)
	})
	var got []msg.Message
	l.Register(a, HandlerFunc(func(from ids.NodeID, m msg.Message) { got = append(got, msg.Keep(m)) }))

	l.Deliver(CrossFrame{From: ids.MSS(9).Node(), To: a, Env: msg.EnvelopeOf(&msg.Greet{MH: 1, OldMSS: 9})})
	if len(got) != 1 {
		t.Fatalf("Deliver reached handler %d times, want 1", len(got))
	}
	if len(events) != 1 || events[0] != EventDelivered {
		t.Fatalf("observer saw %v, want [EventDelivered]", events)
	}
}

func TestRegionLinkShortLatencyPanics(t *testing.T) {
	k := sim.NewKernel(1)
	a := ids.MSS(1).Node()
	local := NewWired(k, []ids.NodeID{a}, WiredConfig{}, nil)
	l := NewRegionLink(k, RegionLinkConfig{
		Local:        local,
		LocalMembers: []ids.NodeID{a},
		Latency:      Constant(1 * time.Millisecond),
		Lookahead:    2 * time.Millisecond,
		Emit:         func(CrossFrame) {},
	}, nil)
	l.Register(a, HandlerFunc(func(ids.NodeID, msg.Message) {}))
	defer func() {
		if recover() == nil {
			t.Fatal("sub-lookahead cross latency did not panic")
		}
	}()
	l.Send(a, ids.MSS(2).Node(), &msg.Greet{MH: 1, OldMSS: 1})
}
