package netsim

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/wtp"
)

// Tests of the pooled in-flight records (wiredFrame, radioFrame): what a
// hop costs once the free lists are warm, and the lifetime rule — a
// record is released before the handler it delivers to runs, a held-back
// frame keeps its record, and where a frame can fire twice nothing is
// recycled.

func nopHandler() Handler { return HandlerFunc(func(ids.NodeID, msg.Message) {}) }

// hopAllocs warms a send+drain step and returns its steady-state
// allocations.
func hopAllocs(k *sim.Kernel, step func()) float64 {
	for i := 0; i < 64; i++ {
		step()
		k.Run()
	}
	return testing.AllocsPerRun(200, func() {
		step()
		k.Run()
	})
}

func TestWiredUncausalAllocBudget(t *testing.T) {
	k := sim.NewKernel(1)
	w, _ := wiredPair(t, k, WiredConfig{Latency: Constant(time.Millisecond)})
	w.Register(ids.MSS(2).Node(), nopHandler()) // a recorder would box what it keeps
	var m msg.Message = msg.Dereg{MH: 7, NewMSS: 2}
	if avg := hopAllocs(k, func() { w.Send(ids.MSS(1).Node(), ids.MSS(2).Node(), m) }); avg != 0 {
		t.Errorf("uncausal wired hop: %.1f allocs/op, budget 0", avg)
	}
}

// arqLinks are the two links the ARQ's pin and benchmark run over: one
// that loses nothing, one with fault_recovery's fault mix.
var arqLinks = map[string]func(*sim.Kernel) FaultHook{
	"clean":  func(*sim.Kernel) FaultHook { return &dropNth{} },
	"faulty": func(k *sim.Kernel) FaultHook { return &seededFaults{rng: k.RNG().Fork()} },
}

// TestWiredARQAllocBudget: a message over the fault-tolerant backbone
// costs nothing either (ROADMAP 5a). The ARQ's record — sequence number,
// attempt, the frame it delivers, its three fire methods — is recycled
// like the frame record under it, the retransmission timer is never
// cancelled so it needs no handle, and the link-layer envelopes are boxed
// only for an observer. On a link that drops, duplicates and delays, the
// retransmissions, the extra copies and their acks ride the same record.
func TestWiredARQAllocBudget(t *testing.T) {
	var m msg.Message = msg.Dereg{MH: 7, NewMSS: 2}
	for name, faults := range arqLinks {
		k := sim.NewKernel(1)
		w, _ := wiredPair(t, k, WiredConfig{
			Latency: Constant(time.Millisecond), Causal: true, Faults: faults(k),
			ARQ: ARQConfig{Enabled: true, RTO: 10 * time.Millisecond},
		})
		w.Register(ids.MSS(2).Node(), nopHandler())
		// A burst a step: on the faulty link most steps retransmit, some
		// reorder (the receiver's ahead set), some duplicate.
		avg := hopAllocs(k, func() {
			for i := 0; i < 8; i++ {
				w.Send(ids.MSS(1).Node(), ids.MSS(2).Node(), m)
			}
		})
		if avg != 0 {
			t.Errorf("wired ARQ hop, %s link: %.1f allocs per 8 messages, budget 0", name, avg)
		}
		if re, out := w.ARQStats(); out != 0 || (name == "faulty") != (re > 0) {
			t.Errorf("%s link: %d retransmissions, %d outstanding", name, re, out)
		}
		if w.arq.Out() != 0 {
			t.Errorf("%s link: %d ARQ records still out after the kernel drained", name, w.arq.Out())
		}
	}
}

func radioPair(k *sim.Kernel, cfg WirelessConfig) *Wireless {
	cfg.Latency = Constant(time.Millisecond)
	cfg.Reachable = func(ids.MSS, ids.MH) bool { return true }
	w := NewWireless(k, cfg, nil)
	w.RegisterMSS(1, nopHandler())
	w.RegisterMH(7, nopHandler())
	return w
}

func TestRadioAllocBudget(t *testing.T) {
	k := sim.NewKernel(1)
	w := radioPair(k, WirelessConfig{QueueLimit: 8})
	var (
		req   msg.Message = msg.Request{Req: ids.RequestID{Origin: 7, Seq: 1}}
		res   msg.Message = msg.ResultDeliver{Req: ids.RequestID{Origin: 7, Seq: 1}}
		greet msg.Message = msg.Greet{MH: 7}
		admit msg.Message = msg.RegConfirm{MH: 7}
	)
	for name, step := range map[string]func(){
		"uplink":           func() { w.SendUplink(7, 1, req) },
		"downlink":         func() { w.SendDownlink(1, 7, res) },
		"uplink control":   func() { w.SendUplink(7, 1, greet) },
		"downlink control": func() { w.SendDownlink(1, 7, admit) },
	} {
		if avg := hopAllocs(k, step); avg != 0 {
			t.Errorf("radio %s: %.1f allocs/op, budget 0", name, avg)
		}
	}
}

// TestWtpFrameAllocBudget: a windowed data frame and the ack it provokes
// cost nothing — a frame the receiver has already seen, which it only
// re-acks, and a fresh one in order, whose messages it hands up as the
// record's own list.
func TestWtpFrameAllocBudget(t *testing.T) {
	k := sim.NewKernel(1)
	w := radioPair(k, WirelessConfig{QueueLimit: 8, WTP: wtp.Config{Enabled: true}})
	w.SendDownlink(1, 7, msg.ResultDeliver{Req: ids.RequestID{Origin: 7, Seq: 1}})
	k.Run()
	seen := msg.WtpData{Epoch: 1, Seq: 1}
	if avg := hopAllocs(k, func() { w.transmitWtpFrame(1, 7, seen) }); avg != 0 {
		t.Errorf("wtp frame already seen + ack: %.1f allocs/op, budget 0", avg)
	}
	fresh := msg.WtpData{Epoch: 2, Inner: []msg.Envelope{msg.EnvelopeOf(msg.ResultDeliver{Req: ids.RequestID{Origin: 7, Seq: 2}})}}
	if avg := hopAllocs(k, func() {
		fresh.Seq++
		w.transmitWtpFrame(1, 7, fresh)
	}); avg != 0 {
		t.Errorf("fresh wtp frame in order + ack: %.1f allocs/op, budget 0", avg)
	}
	if r := w.wtpIn[radioKey(1, 7)]; r.Cum() != fresh.Seq {
		t.Errorf("receiver watermark %d, want every fresh frame (%d) handed up", r.Cum(), fresh.Seq)
	}
}

// TestWtpDownlinkAllocBudget: a result sent down a warm windowed link
// under a nil Observer, with a drop hook set, allocates nothing: the
// sender keeps its envelope in an array an acked frame handed on, the frame and
// its ack fly as typed fields of recycled records that copy their lists
// into arrays of their own, and nothing boxes them for a listener that is
// not there. (At the parent, which boxed the result for the sender's
// queue and cloned the frame's message list: 1.)
func TestWtpDownlinkAllocBudget(t *testing.T) {
	k := sim.NewKernel(1)
	drops := 0
	w := radioPair(k, WirelessConfig{QueueLimit: 8, WTP: wtp.Config{Enabled: true},
		OnDrop: func(Layer, EventKind) { drops++ }})
	var res msg.Message = msg.ResultDeliver{Req: ids.RequestID{Origin: 7, Seq: 1}}
	if avg := hopAllocs(k, func() { w.SendDownlink(1, 7, res) }); avg != 0 {
		t.Errorf("windowed downlink frame + ack: %.1f allocs/op, budget 0", avg)
	}
	if _, _, _, frames, _, _ := w.WTPStats(); frames != 64+201 || drops != 0 {
		t.Errorf("%d frames sent, %d dropped; want one frame a result and no drop", frames, drops)
	}
}

// TestFrameReleasedAfterHandler: a handler is shown a view of the leg in
// the record that carried it, and sends from inside delivery, so the
// record is released only once the handler returns: the reply takes
// another. A ping-pong over one causal link must see every payload
// intact, read before and after the handler's own send, and leave no
// record out.
func TestFrameReleasedAfterHandler(t *testing.T) {
	k := sim.NewKernel(1)
	a, b := ids.MSS(1).Node(), ids.MSS(2).Node()
	w := NewWired(k, []ids.NodeID{a, b}, WiredConfig{Latency: Constant(time.Millisecond), Causal: true}, nil)
	var got []ids.MH
	bounce := func(self, peer ids.NodeID) Handler {
		return HandlerFunc(func(from ids.NodeID, m msg.Message) {
			l, _ := msg.LegOf(m)
			mh := l.MH
			got = append(got, mh)
			if mh < 100 {
				w.Send(self, peer, msg.Greet{MH: mh + 1})
			}
			if l, _ = msg.LegOf(m); from != peer || l.MH != mh {
				t.Errorf("delivery %d changed under the handler: from %v, %v", mh, from, m)
			}
		})
	}
	w.Register(a, bounce(a, b))
	w.Register(b, bounce(b, a))
	w.Send(a, b, msg.Greet{MH: 1})
	k.Run()
	if len(got) != 100 {
		t.Fatalf("delivered %d messages, want 100", len(got))
	}
	for i, mh := range got {
		if mh != ids.MH(i+1) {
			t.Fatalf("delivery %d carried %d", i, mh)
		}
	}
	if avg := testing.AllocsPerRun(10, func() {
		got = got[:0]
		w.Send(a, b, msg.Greet{MH: 90})
		k.Run()
	}); avg > 11 { // the eleven Greets boxed by the handlers
		t.Errorf("ping-pong of 11 hops: %.1f allocs, want only the boxed messages", avg)
	}
	if w.frames.Out() != 0 {
		t.Errorf("%d frame records out after the kernel drained", w.frames.Out())
	}
}

// TestHeldBackFrameKeepsItsRecord: a frame the causal layer holds back
// owns its record until it is handed up, however much traffic recycles
// records around it in the meantime.
func TestHeldBackFrameKeepsItsRecord(t *testing.T) {
	k := sim.NewKernel(1)
	lat := &scriptedLatency{delays: []time.Duration{
		50 * time.Millisecond, // m1: mss1 -> mss3, slow
		time.Millisecond,      // m2: mss1 -> mss2
		time.Millisecond,      // m3: mss2 -> mss3, held back behind m1
		time.Millisecond,      // then the chatter
	}}
	w := NewWired(k, staticMembers(), WiredConfig{Latency: lat, Causal: true}, nil)
	m1, m2, m3 := ids.MSS(1).Node(), ids.MSS(2).Node(), ids.MSS(3).Node()
	var at3 []record
	w.Register(m3, collector(&at3))
	w.Register(ids.Server(1).Node(), nopHandler())
	chatter := 0
	w.Register(m1, HandlerFunc(func(ids.NodeID, msg.Message) {
		if chatter++; chatter < 40 {
			w.Send(m1, m2, msg.Dereg{MH: ids.MH(1000 + chatter)})
		}
	}))
	w.Register(m2, HandlerFunc(func(_ ids.NodeID, m msg.Message) {
		if j, ok := m.(msg.Join); ok {
			w.Send(m2, m3, msg.Join{MH: j.MH + 1}) // m3
		}
		w.Send(m2, m1, msg.Dereg{MH: 999})
	}))
	w.Send(m1, m3, msg.Join{MH: 1}) // m1
	w.Send(m1, m2, msg.Join{MH: 2}) // m2
	k.RunUntil(sim.Time(40 * time.Millisecond))
	if len(at3) != 0 || len(w.CausalQueue(m3)) != 1 {
		t.Fatalf("at 40ms: %d delivered, %d held back; want 0 and 1", len(at3), len(w.CausalQueue(m3)))
	}
	if chatter < 10 {
		t.Fatalf("only %d chatter hops ran while the frame was held", chatter)
	}
	k.Run()
	if len(at3) != 2 {
		t.Fatalf("mss3 received %d messages, want 2", len(at3))
	}
	want := []record{{m1, msg.Join{MH: 1}}, {m2, msg.Join{MH: 3}}}
	for i, r := range at3 {
		if r != want[i] {
			t.Errorf("delivery %d = %v from %v, want %v from %v", i, r.m, r.from, want[i].m, want[i].from)
		}
	}
}

// TestDuplicateFaultWithoutARQDeliversTwice: with nothing to dedup, a
// duplication fault fires the same record twice, so it must not be
// recycled in between — both copies arrive intact even though the
// receiver sends from inside the first delivery.
func TestDuplicateFaultWithoutARQDeliversTwice(t *testing.T) {
	k := sim.NewKernel(1)
	a, b := ids.MSS(1).Node(), ids.MSS(2).Node()
	w := NewWired(k, []ids.NodeID{a, b}, WiredConfig{
		Latency: Constant(time.Millisecond), Faults: &dropNth{dupNth: 1},
	}, nil)
	var got []record
	w.Register(a, nopHandler())
	w.Register(b, HandlerFunc(func(from ids.NodeID, m msg.Message) {
		got = append(got, record{from, msg.Keep(m)})
		w.Send(b, a, msg.Dereg{MH: 1})
	}))
	w.Send(a, b, msg.Greet{MH: 42})
	k.Run()
	if len(got) != 2 {
		t.Fatalf("delivered %d copies, want 2", len(got))
	}
	for i, r := range got {
		if r.from != a || r.m != (msg.Greet{MH: 42}) {
			t.Errorf("copy %d = %v from %v, want the original", i, r.m, r.from)
		}
	}
}

// TestSequencerMayFireOutOfOrderAndTwice: the adversarial sequencer owns
// the fire functions it was offered for good.
func TestSequencerMayFireOutOfOrderAndTwice(t *testing.T) {
	k := sim.NewKernel(1)
	seq := &holdSeq{}
	a, b := ids.MSS(1).Node(), ids.MSS(2).Node()
	w := NewWired(k, []ids.NodeID{a, b}, WiredConfig{Seq: seq}, nil)
	var got []ids.MH
	w.Register(a, nopHandler())
	w.Register(b, HandlerFunc(func(_ ids.NodeID, m msg.Message) {
		got = append(got, msg.Keep(m).(msg.Greet).MH)
		w.Send(b, a, msg.Dereg{MH: 1})
	}))
	for mh := ids.MH(1); mh <= 3; mh++ {
		w.Send(a, b, msg.Greet{MH: mh})
	}
	for _, i := range []int{2, 0, 2, 1, 0} {
		seq.fires[i]()
	}
	want := []ids.MH{3, 1, 3, 2, 1}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}

	// The radio under a sequencer, likewise.
	r := NewWireless(k, WirelessConfig{Reachable: func(ids.MSS, ids.MH) bool { return true }, Seq: seq}, nil)
	seq.fires = nil
	got = nil
	r.RegisterMH(7, HandlerFunc(func(_ ids.NodeID, m msg.Message) {
		got = append(got, msg.Keep(m).(msg.Greet).MH)
		r.SendUplink(7, 1, msg.Greet{MH: 99})
	}))
	r.RegisterMSS(1, nopHandler())
	r.SendDownlink(1, 7, msg.Greet{MH: 1})
	r.SendDownlink(1, 7, msg.Greet{MH: 2})
	seq.fires[1]()
	seq.fires[0]()
	seq.fires[1]()
	if len(got) != 3 || got[0] != 2 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("radio delivered %v, want [2 1 2]", got)
	}
}

// TestRetransmissionNeverTouchesAFiredRecord: an ARQ frame whose ack is
// lost is retransmitted after its record has delivered and been reused;
// the receiver's dedup stops the copy and the later message that now
// owns the record is unharmed.
func TestRetransmissionNeverTouchesAFiredRecord(t *testing.T) {
	k := sim.NewKernel(1)
	// Attempt 1 is the frame, attempt 2 its ack (dropped).
	w, got := wiredPair(t, k, WiredConfig{
		Latency: Constant(time.Millisecond), Causal: true,
		Faults: &dropNth{from: 2, count: 1},
		ARQ:    ARQConfig{Enabled: true, RTO: 10 * time.Millisecond},
	})
	a, b := ids.MSS(1).Node(), ids.MSS(2).Node()
	w.Send(a, b, msg.Greet{MH: 1})
	k.RunUntil(sim.Time(5 * time.Millisecond))
	w.Send(a, b, msg.Greet{MH: 2}) // takes over the fired record
	k.Run()
	if len(*got) != 2 || (*got)[0] != (msg.Greet{MH: 1}) || (*got)[1] != (msg.Greet{MH: 2}) {
		t.Fatalf("delivered %v, want Greet 1 then Greet 2, once each", *got)
	}
	if re, out := w.ARQStats(); re != 1 || out != 0 {
		t.Errorf("retransmits %d outstanding %d, want 1 and 0", re, out)
	}
}
