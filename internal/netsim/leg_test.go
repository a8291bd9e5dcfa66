package netsim

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
)

// legSink counts what reaches it, by door.
type legSink struct{ legs, msgs int }

func (s *legSink) HandleMessage(ids.NodeID, msg.Message) { s.msgs++ }
func (s *legSink) HandleLeg(ids.NodeID, msg.Leg)         { s.legs++ }

var sampleLeg = msg.ResultForward{
	Proxy: ids.ProxyID{Host: 1, Seq: 3}, MH: 7, Req: ids.RequestID{Origin: 7, Seq: 1}, Payload: []byte("r"),
}.Leg()

// TestWiredLegAllocBudget: a warm causal wired hop of a leg allocates
// nothing, under a nil Observer and under a set one alike: Sent and
// Delivered show the listener a view of the frame's leg, and the handler
// takes the leg through HandleLeg. A handler without HandleLeg is handed
// a box made at delivery, listener or not. (At the parent the listener's
// hop cost 1, the box its envelope made and the handler was handed.)
func TestWiredLegAllocBudget(t *testing.T) {
	cases := []struct {
		name       string
		observed   bool
		legHandler bool
		budget     float64
	}{
		{"leg handler, nil observer", false, true, 0},
		{"leg handler, observer", true, true, 0},
		{"plain handler, nil observer", false, false, 1},
		{"plain handler, observer", true, false, 1},
	}
	for _, c := range cases {
		k := sim.NewKernel(1)
		var obs Observer
		events := 0
		if c.observed {
			obs = func(sim.Time, Layer, EventKind, ids.NodeID, ids.NodeID, msg.Message) { events++ }
		}
		w := NewWired(k, staticMembers(), WiredConfig{Latency: Constant(time.Millisecond), Causal: true}, obs)
		sink := &legSink{}
		for _, n := range staticMembers() {
			if c.legHandler {
				w.Register(n, sink)
			} else {
				w.Register(n, HandlerFunc(func(ids.NodeID, msg.Message) { sink.msgs++ }))
			}
		}
		from, to := ids.MSS(1).Node(), ids.MSS(2).Node()
		if avg := hopAllocs(k, func() { w.SendLeg(from, to, sampleLeg) }); avg != c.budget {
			t.Errorf("%s: %.1f allocs a hop, budget %v", c.name, avg, c.budget)
		}
		legs, msgs := sink.legs, sink.msgs
		if !c.legHandler {
			legs, msgs = msgs, legs
		}
		if legs != 64+201 || msgs != 0 {
			t.Errorf("%s: %d hops took the expected door, %d the other; want %d, 0", c.name, legs, msgs, 64+201)
		}
		if c.observed && events != 2*(64+201) {
			t.Errorf("%s: observer saw %d events, want Sent and Delivered per hop", c.name, events)
		}
	}
}

// TestRadioLegAllocBudget: a leg up or down a warm radio link allocates
// nothing, under a nil Observer and under a set one alike, and the
// handler takes it through HandleLeg. (At the parent the listener's hop
// cost 1, the box its envelope made and the handler was handed.)
func TestRadioLegAllocBudget(t *testing.T) {
	for _, observed := range []bool{false, true} {
		k := sim.NewKernel(1)
		var obs Observer
		if observed {
			obs = func(sim.Time, Layer, EventKind, ids.NodeID, ids.NodeID, msg.Message) {}
		}
		w := NewWireless(k, WirelessConfig{
			Latency: Constant(time.Millisecond), QueueLimit: 8,
			Reachable: func(ids.MSS, ids.MH) bool { return true },
		}, obs)
		sink := &legSink{}
		w.RegisterMSS(1, sink)
		w.RegisterMH(7, sink)
		ack := msg.AckMH{MH: 7, Req: ids.RequestID{Origin: 7, Seq: 1}}.Leg()
		res := msg.ResultDeliver{Req: ids.RequestID{Origin: 7, Seq: 1}}.Leg()
		for name, step := range map[string]func(){
			"uplink":   func() { w.SendUplinkLeg(7, 1, ack) },
			"downlink": func() { w.SendDownlinkLeg(1, 7, res) },
		} {
			if avg := hopAllocs(k, step); avg != 0 {
				t.Errorf("radio %s leg, observed %t: %.1f allocs a hop, budget 0", name, observed, avg)
			}
		}
		if sink.legs != 2*(64+201) || sink.msgs != 0 {
			t.Errorf("observed %t: %d hops handed as legs, %d as boxes", observed, sink.legs, sink.msgs)
		}
	}
}

// TestGreetLegIsControl: a greet leg is registration control exactly as
// a boxed greet is. On a radio that loses every data frame and queues one,
// greets sent back to back all arrive; on a loss-free one, they hold no
// queue slot, so the data frame sent behind them in the same instant is
// not shed.
func TestGreetLegIsControl(t *testing.T) {
	greet := msg.Greet{MH: 7, OldMSS: 2, Inc: 1}
	ack := msg.AckMH{MH: 7, Req: ids.RequestID{Origin: 7, Seq: 1}}.Leg()
	run := func(loss float64, asLeg bool) (arrived int, shed int64) {
		k := sim.NewKernel(1)
		w := NewWireless(k, WirelessConfig{
			Latency: Constant(time.Millisecond), LossProb: loss, QueueLimit: 1,
			Reachable: func(ids.MSS, ids.MH) bool { return true },
		}, nil)
		sink := &legSink{}
		w.RegisterMSS(1, sink)
		for i := 0; i < 3; i++ {
			if asLeg {
				w.SendUplinkLeg(7, 1, greet.Leg())
			} else {
				w.SendUplink(7, 1, greet)
			}
		}
		w.SendUplinkLeg(7, 1, ack)
		k.Run()
		return sink.legs + sink.msgs, w.Shed()
	}
	for _, c := range []struct {
		loss float64
		want int // the three greets, and the ack unless the radio loses it
	}{{1, 3}, {0, 4}} {
		for _, asLeg := range []bool{true, false} {
			if arrived, shed := run(c.loss, asLeg); arrived != c.want || shed != 0 {
				t.Errorf("loss %v, greets as legs %t: %d frames arrived, %d shed; want %d, 0",
					c.loss, asLeg, arrived, shed, c.want)
			}
		}
	}
}

// TestLegsObserveAsBoxed: a substrate shows a listener the same events
// whether it carries a message boxed or as a leg — through causal
// hold-back, the ARQ over a dropping, duplicating link (whose lost frames
// show the leg inside a LinkFrame), and a lossy radio with a drop filter
// — and the handler receives the same message. The listener keeps what it
// is shown, so it keeps it through msg.Keep: a view of a leg and a
// LinkFrame shown by pointer keep as the boxed run's messages.
func TestLegsObserveAsBoxed(t *testing.T) {
	type event struct {
		at       sim.Time
		layer    Layer
		kind     EventKind
		from, to ids.NodeID
		m        msg.Message
	}
	legs := []msg.Leg{
		sampleLeg,
		msg.AckForward{Proxy: ids.ProxyID{Host: 2, Seq: 1}, MH: 7, Req: ids.RequestID{Origin: 7, Seq: 2}, DelProxy: true}.Leg(),
		msg.ServerResult{Proxy: ids.ProxyID{Host: 3, Seq: 9}, Req: ids.RequestID{Origin: 7, Seq: 3}}.Leg(),
	}
	run := func(asLeg bool) ([]event, []msg.Message) {
		k := sim.NewKernel(5)
		var seen []event
		var got []msg.Message
		obs := func(at sim.Time, l Layer, kind EventKind, from, to ids.NodeID, m msg.Message) {
			seen = append(seen, event{at, l, kind, from, to, msg.Keep(m)})
		}
		into := HandlerFunc(func(_ ids.NodeID, m msg.Message) { got = append(got, m) })
		wired := NewWired(k, staticMembers(), WiredConfig{
			Latency: Uniform{Lo: time.Millisecond, Hi: 9 * time.Millisecond}, Causal: true,
			Faults: arqLinks["faulty"](k), ARQ: ARQConfig{Enabled: true, RTO: 20 * time.Millisecond},
		}, obs)
		for _, n := range staticMembers() {
			wired.Register(n, into)
		}
		radio := NewWireless(k, WirelessConfig{
			Latency: Uniform{Lo: time.Millisecond, Hi: 9 * time.Millisecond}, LossProb: 0.2,
			Reachable:  func(ids.MSS, ids.MH) bool { return true },
			DropFilter: func(_, _ ids.NodeID, m msg.Message) bool { return m.Kind() == msg.KindServerResult },
		}, obs)
		radio.RegisterMSS(1, into)
		radio.RegisterMH(7, into)
		for i := 0; i < 40; i++ {
			l := legs[i%len(legs)]
			from, to := staticMembers()[i%3], staticMembers()[(i+1)%4]
			if asLeg {
				wired.SendLeg(from, to, l)
				radio.SendUplinkLeg(7, 1, l)
				radio.SendDownlinkLeg(1, 7, l)
			} else {
				wired.Send(from, to, l.Message())
				radio.SendUplink(7, 1, l.Message())
				radio.SendDownlink(1, 7, l.Message())
			}
			k.RunUntil(k.Now() + sim.Time(3*time.Millisecond))
		}
		k.Run()
		return seen, got
	}
	boxedSeen, boxedGot := run(false)
	legSeen, legGot := run(true)
	if !reflect.DeepEqual(legSeen, boxedSeen) {
		t.Errorf("a listener saw %d events of legs, %d of boxed messages, or different ones", len(legSeen), len(boxedSeen))
	}
	if !reflect.DeepEqual(legGot, boxedGot) {
		t.Errorf("handlers took %d messages as legs, %d boxed, or different ones", len(legGot), len(boxedGot))
	}
	drops := 0
	for _, e := range boxedSeen {
		if e.kind.IsDrop() {
			drops++
		}
	}
	if drops == 0 || len(boxedGot) == 0 {
		t.Errorf("%d drops, %d deliveries: the run does not exercise what it compares", drops, len(boxedGot))
	}
}
