package netsim

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
)

// countShed returns an observer that counts EventShed callbacks.
func countShed(n *int) Observer {
	return func(at sim.Time, layer Layer, kind EventKind, from, to ids.NodeID, m msg.Message) {
		if kind == EventShed {
			*n++
		}
	}
}

func TestWiredQueueLimitSheds(t *testing.T) {
	k := sim.NewKernel(1)
	var shedEvents int
	w := NewWired(k, staticMembers(), WiredConfig{
		Latency:    Constant(10 * time.Millisecond),
		QueueLimit: 4,
	}, countShed(&shedEvents))
	var got []record
	w.Register(ids.MSS(2).Node(), collector(&got))
	w.Register(ids.MSS(1).Node(), HandlerFunc(func(ids.NodeID, msg.Message) {}))
	w.Register(ids.MSS(3).Node(), HandlerFunc(func(ids.NodeID, msg.Message) {}))
	w.Register(ids.Server(1).Node(), HandlerFunc(func(ids.NodeID, msg.Message) {}))

	for i := 0; i < 10; i++ {
		w.Send(ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Join{MH: ids.MH(i + 1)})
	}
	k.Run()

	if len(got) != 4 {
		t.Errorf("delivered %d messages, want 4 (queue limit)", len(got))
	}
	if shedEvents != 6 || w.Shed() != 6 {
		t.Errorf("shed events=%d Shed()=%d, want 6/6", shedEvents, w.Shed())
	}
}

func TestWiredQueueLimitBoundsConcurrencyNotTotal(t *testing.T) {
	// Frames offered after the queue drains go through: the limit bounds
	// concurrency, not cumulative traffic.
	k := sim.NewKernel(1)
	w := NewWired(k, staticMembers(), WiredConfig{
		Latency:    Constant(10 * time.Millisecond),
		QueueLimit: 1,
	}, nil)
	var got []record
	w.Register(ids.MSS(2).Node(), collector(&got))
	w.Register(ids.MSS(1).Node(), HandlerFunc(func(ids.NodeID, msg.Message) {}))
	w.Register(ids.MSS(3).Node(), HandlerFunc(func(ids.NodeID, msg.Message) {}))
	w.Register(ids.Server(1).Node(), HandlerFunc(func(ids.NodeID, msg.Message) {}))
	for i := 0; i < 5; i++ {
		mh := ids.MH(i + 1)
		k.Defer(time.Duration(i)*50*time.Millisecond, func() {
			w.Send(ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Join{MH: mh})
		})
	}
	k.Run()
	if len(got) != 5 || w.Shed() != 0 {
		t.Errorf("delivered %d (shed %d), want all 5 with a drained queue", len(got), w.Shed())
	}
}

// TestWiredQueueLimitARQRecovers is the load-shedding contract the
// protocol's delivery guarantee rests on: with the ARQ above the
// bounded queue, shed frames stay un-acked and retransmit, so every
// message still arrives exactly once — the full queue is backpressure,
// not loss.
func TestWiredQueueLimitARQRecovers(t *testing.T) {
	k := sim.NewKernel(1)
	var shedEvents int
	w := NewWired(k, staticMembers(), WiredConfig{
		Latency:    Constant(10 * time.Millisecond),
		Causal:     true,
		QueueLimit: 2,
		ARQ:        ARQConfig{Enabled: true, RTO: 25 * time.Millisecond, MaxBackoff: 100 * time.Millisecond},
	}, countShed(&shedEvents))
	var got []record
	w.Register(ids.MSS(2).Node(), collector(&got))
	w.Register(ids.MSS(1).Node(), HandlerFunc(func(ids.NodeID, msg.Message) {}))
	w.Register(ids.MSS(3).Node(), HandlerFunc(func(ids.NodeID, msg.Message) {}))
	w.Register(ids.Server(1).Node(), HandlerFunc(func(ids.NodeID, msg.Message) {}))

	const n = 12
	for i := 0; i < n; i++ {
		w.Send(ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Join{MH: ids.MH(i + 1)})
	}
	k.Run()

	if len(got) != n {
		t.Fatalf("delivered %d messages, want %d despite shedding", len(got), n)
	}
	seen := make(map[ids.MH]int)
	for _, r := range got {
		seen[r.m.(msg.Join).MH]++
	}
	for mh, c := range seen {
		if c != 1 {
			t.Errorf("MH %v delivered %d times, want exactly once", mh, c)
		}
	}
	if shedEvents == 0 {
		t.Error("no sheds recorded; queue limit never engaged")
	}
	retransmits, outstanding := w.ARQStats()
	if retransmits == 0 {
		t.Error("no ARQ retransmits; shed frames should have been retried")
	}
	if outstanding != 0 {
		t.Errorf("%d frames still outstanding after Run", outstanding)
	}
}

func TestWirelessQueueLimitShedsDownlink(t *testing.T) {
	k := sim.NewKernel(1)
	var shedEvents int
	w := NewWireless(k, WirelessConfig{
		Latency:    Constant(20 * time.Millisecond),
		Reachable:  func(ids.MSS, ids.MH) bool { return true },
		QueueLimit: 3,
	}, countShed(&shedEvents))
	var got []record
	w.RegisterMH(1, collector(&got))

	for i := 0; i < 8; i++ {
		w.SendDownlink(1, 1, msg.ResultDeliver{Req: ids.RequestID{Origin: 1, Seq: uint32(i)}})
	}
	k.Run()

	if len(got) != 3 {
		t.Errorf("delivered %d frames, want 3 (queue limit)", len(got))
	}
	if shedEvents != 5 || w.Shed() != 5 {
		t.Errorf("shed events=%d Shed()=%d, want 5/5", shedEvents, w.Shed())
	}
}

// TestRadioLinkTableDrains: the radio link table, each link's FIFO
// horizon and queue count, holds only links with frames in flight. After
// a burst over every link between two stations and three hosts, both
// ways, with jittered delays and a bounded queue, it is empty, and a
// second burst is still delivered in order on every link.
func TestRadioLinkTableDrains(t *testing.T) {
	k := sim.NewKernel(1)
	w := NewWireless(k, WirelessConfig{
		Latency:    Uniform{Lo: time.Millisecond, Hi: 30 * time.Millisecond},
		Reachable:  func(ids.MSS, ids.MH) bool { return true },
		QueueLimit: 4,
	}, nil)
	last := make(map[[2]ids.NodeID]uint32) // per directed link, the last Seq delivered
	delivered := 0
	order := func(self ids.NodeID) Handler {
		return HandlerFunc(func(from ids.NodeID, m msg.Message) {
			var seq uint32
			switch m := m.(type) {
			case msg.ResultDeliver:
				seq = m.Req.Seq
			case msg.Request:
				seq = m.Req.Seq
			}
			link := [2]ids.NodeID{from, self}
			if seq <= last[link] {
				t.Errorf("%v -> %v: seq %d after %d", from, self, seq, last[link])
			}
			last[link] = seq
			delivered++
		})
	}
	for mss := ids.MSS(1); mss <= 2; mss++ {
		w.RegisterMSS(mss, order(mss.Node()))
	}
	for mh := ids.MH(1); mh <= 3; mh++ {
		w.RegisterMH(mh, order(mh.Node()))
	}
	seq := uint32(0)
	burst := func() {
		for i := 0; i < 6; i++ {
			seq++
			for mss := ids.MSS(1); mss <= 2; mss++ {
				for mh := ids.MH(1); mh <= 3; mh++ {
					w.SendDownlink(mss, mh, msg.ResultDeliver{Req: ids.RequestID{Origin: mh, Seq: seq}})
					w.SendUplink(mh, mss, msg.Request{Req: ids.RequestID{Origin: mh, Seq: seq}, Server: 1})
				}
			}
		}
		k.Run()
		for d, links := range w.links {
			if len(links) != 0 {
				t.Errorf("direction %d after the burst drained: %d links left", d, len(links))
			}
		}
	}
	burst()
	burst()
	if shed := int(w.Shed()); delivered+shed != 2*6*2*2*3 || shed == 0 {
		t.Errorf("delivered %d, shed %d of %d frames; the queue limit should have engaged", delivered, shed, 2*6*2*2*3)
	}
}

func TestWirelessQueueLimitExemptsControlUplink(t *testing.T) {
	k := sim.NewKernel(1)
	w := NewWireless(k, WirelessConfig{
		Latency:    Constant(20 * time.Millisecond),
		Reachable:  func(ids.MSS, ids.MH) bool { return true },
		QueueLimit: 1,
	}, nil)
	var got []record
	w.RegisterMSS(1, collector(&got))

	// Control frames (greet) ride the beacon exchange: never shed and
	// not counted against the data queue. Data frames past the limit
	// are shed: the first request takes the single slot, the rest shed.
	for i := 0; i < 3; i++ {
		w.SendUplink(1, 1, msg.Greet{MH: 1, OldMSS: 1})
	}
	for i := 0; i < 3; i++ {
		w.SendUplink(1, 1, msg.Request{Req: ids.RequestID{Origin: 1, Seq: uint32(i)}, Server: 1})
	}
	k.Run()

	var greets, requests int
	for _, r := range got {
		switch r.m.(type) {
		case msg.Greet:
			greets++
		case msg.Request:
			requests++
		}
	}
	if greets != 3 {
		t.Errorf("delivered %d greets, want all 3 (control exempt from shedding)", greets)
	}
	if requests != 1 {
		t.Errorf("delivered %d requests, want 1 (greets do not occupy the data queue)", requests)
	}
	if w.Shed() != 2 {
		t.Errorf("Shed() = %d, want 2", w.Shed())
	}
}

// TestWirelessQueueLimitExemptsControlDownlink pins the downlink side of
// the control-plane exemption: a reg-confirm occupying nothing means a
// result offered immediately after it still takes the single queue slot
// and is delivered, not shed.
func TestWirelessQueueLimitExemptsControlDownlink(t *testing.T) {
	k := sim.NewKernel(1)
	w := NewWireless(k, WirelessConfig{
		Latency:    Constant(20 * time.Millisecond),
		Reachable:  func(ids.MSS, ids.MH) bool { return true },
		QueueLimit: 1,
	}, nil)
	var got []record
	w.RegisterMH(1, collector(&got))

	w.SendDownlink(1, 1, msg.RegConfirm{MH: 1})
	w.SendDownlink(1, 1, msg.Admit{Req: ids.RequestID{Origin: 1, Seq: 1}})
	w.SendDownlink(1, 1, msg.ResultDeliver{Req: ids.RequestID{Origin: 1, Seq: 1}})
	k.Run()

	if len(got) != 3 {
		t.Errorf("delivered %d frames, want all 3 (control must not pin the data queue)", len(got))
	}
	if w.Shed() != 0 {
		t.Errorf("Shed() = %d, want 0", w.Shed())
	}
}
