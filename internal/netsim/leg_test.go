package netsim

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
)

// legSink counts what reaches its door: views, and anything else.
type legSink struct{ views, others int }

func (s *legSink) HandleMessage(_ ids.NodeID, m msg.Message) {
	if _, ok := m.(msg.View); ok {
		s.views++
	} else {
		s.others++
	}
}

// sampleLeg is the sender's slot of the pins below: a leg sent as a view
// of it, as a node sends from its world's outgoing slot.
var sampleLeg = msg.ResultForward{
	Proxy: ids.ProxyID{Host: 1, Seq: 3}, MH: 7, Req: ids.RequestID{Origin: 7, Seq: 1}, Payload: []byte("r"),
}.Leg()

// TestWiredLegAllocBudget: a warm causal wired hop of a leg sent as a view
// allocates nothing, under a nil Observer and under a set one alike: Send
// copies the leg into the frame record, Sent and Delivered show the
// listener a view of the record's leg, and so is the handler shown it, a
// HandlerFunc as any other.
func TestWiredLegAllocBudget(t *testing.T) {
	for _, observed := range []bool{false, true} {
		for _, fn := range []bool{false, true} {
			k := sim.NewKernel(1)
			var obs Observer
			events := 0
			if observed {
				obs = func(sim.Time, Layer, EventKind, ids.NodeID, ids.NodeID, msg.Message) { events++ }
			}
			w := NewWired(k, staticMembers(), WiredConfig{Latency: Constant(time.Millisecond), Causal: true}, obs)
			sink := &legSink{}
			for _, n := range staticMembers() {
				if fn {
					w.Register(n, HandlerFunc(sink.HandleMessage))
				} else {
					w.Register(n, sink)
				}
			}
			from, to := ids.MSS(1).Node(), ids.MSS(2).Node()
			if avg := hopAllocs(k, func() { w.Send(from, to, msg.ViewOf(&sampleLeg)) }); avg != 0 {
				t.Errorf("observed %t, HandlerFunc %t: %.1f allocs a hop, budget 0", observed, fn, avg)
			}
			if sink.views != 64+201 || sink.others != 0 {
				t.Errorf("observed %t, HandlerFunc %t: %d hops shown as views, %d otherwise; want %d, 0",
					observed, fn, sink.views, sink.others, 64+201)
			}
			if observed && events != 2*(64+201) {
				t.Errorf("observer saw %d events, want Sent and Delivered per hop", events)
			}
		}
	}
}

// TestRadioLegAllocBudget: a leg sent as a view up or down a warm radio
// link allocates nothing, under a nil Observer and under a set one alike,
// and the handler is shown a view of the frame's leg.
func TestRadioLegAllocBudget(t *testing.T) {
	ack := msg.AckMH{MH: 7, Req: ids.RequestID{Origin: 7, Seq: 1}}.Leg()
	res := msg.ResultDeliver{Req: ids.RequestID{Origin: 7, Seq: 1}}.Leg()
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
		for name, step := range map[string]func(){
			"uplink":   func() { w.SendUplink(7, 1, msg.ViewOf(&ack)) },
			"downlink": func() { w.SendDownlink(1, 7, msg.ViewOf(&res)) },
		} {
			if avg := hopAllocs(k, step); avg != 0 {
				t.Errorf("radio %s leg, observed %t: %.1f allocs a hop, budget 0", name, observed, avg)
			}
		}
		if sink.views != 2*(64+201) || sink.others != 0 {
			t.Errorf("observed %t: %d hops shown as views, %d otherwise", observed, sink.views, sink.others)
		}
	}
}

// TestGreetLegIsControl: a greet sent as a view is registration control
// exactly as a boxed greet is. On a radio that loses every data frame and queues one,
// greets sent back to back all arrive; on a loss-free one, they hold no
// queue slot, so the data frame sent behind them in the same instant is
// not shed.
func TestGreetLegIsControl(t *testing.T) {
	greet := msg.Greet{MH: 7, OldMSS: 2, Inc: 1}
	slot := greet.Leg()
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
				w.SendUplink(7, 1, msg.ViewOf(&slot))
			} else {
				w.SendUplink(7, 1, greet)
			}
		}
		w.SendUplink(7, 1, msg.ViewOf(&ack))
		k.Run()
		return sink.views + sink.others, w.Shed()
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
// whether it is sent a leg boxed or as a view of the sender's slot, which
// the sender overwrites with its next leg as soon as Send returns —
// through causal hold-back, the ARQ over a dropping, duplicating link
// (whose lost frames show the leg inside a LinkFrame), and a lossy radio
// with a drop filter — and the handler is shown the same message. The
// listener and the handler keep what they are shown, so they keep it
// through msg.Keep: a view of a leg and a LinkFrame shown by pointer keep
// as the boxed run's messages.
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
		into := HandlerFunc(func(_ ids.NodeID, m msg.Message) { got = append(got, msg.Keep(m)) })
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
		var slot msg.Leg
		send := func(l msg.Leg) msg.Message {
			slot = l
			return msg.ViewOf(&slot)
		}
		for i := 0; i < 40; i++ {
			l := legs[i%len(legs)]
			from, to := staticMembers()[i%3], staticMembers()[(i+1)%4]
			if asLeg {
				wired.Send(from, to, send(l))
				radio.SendUplink(7, 1, send(l))
				radio.SendDownlink(1, 7, send(l))
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
		t.Errorf("handlers took %d messages sent as views, %d sent boxed, or different ones", len(legGot), len(boxedGot))
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
