package netsim

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
)

// dropNth injects a drop on the nth..(n+k-1)th wired transmission
// attempts (1-based, counted across all links including acks).
type dropNth struct {
	n       int
	from    int
	count   int
	dupNth  int
	delay   time.Duration
	delayed int
}

func (d *dropNth) OnWired(from, to ids.NodeID) LinkFault {
	d.n++
	var f LinkFault
	if d.from > 0 && d.n >= d.from && d.count > 0 {
		d.count--
		f.Drop = true
	}
	if d.dupNth == d.n {
		f.Duplicate = true
	}
	if d.delayed == d.n {
		f.Delay = d.delay
	}
	return f
}

func wiredPair(t *testing.T, k *sim.Kernel, cfg WiredConfig) (*Wired, *[]msg.Message) {
	t.Helper()
	a, b := ids.MSS(1).Node(), ids.MSS(2).Node()
	w := NewWired(k, []ids.NodeID{a, b}, cfg, nil)
	var got []msg.Message
	w.Register(a, HandlerFunc(func(ids.NodeID, msg.Message) {}))
	w.Register(b, HandlerFunc(func(_ ids.NodeID, m msg.Message) { got = append(got, m) }))
	return w, &got
}

func TestARQRetransmitsThroughLoss(t *testing.T) {
	k := sim.NewKernel(1)
	// Drop the first two transmission attempts of the data frame.
	hook := &dropNth{from: 1, count: 2}
	w, got := wiredPair(t, k, WiredConfig{
		Latency: Constant(2 * time.Millisecond),
		Causal:  true,
		Faults:  hook,
		ARQ:     ARQConfig{Enabled: true, RTO: 20 * time.Millisecond},
	})
	w.Send(ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Dereg{MH: 7, NewMSS: 2})
	k.Run()
	if len(*got) != 1 {
		t.Fatalf("delivered %d messages, want exactly 1", len(*got))
	}
	re, out := w.ARQStats()
	if re != 2 {
		t.Errorf("retransmits = %d, want 2", re)
	}
	if out != 0 {
		t.Errorf("outstanding = %d, want 0 after ack", out)
	}
}

func TestARQDedupsDuplicatedFrames(t *testing.T) {
	k := sim.NewKernel(1)
	// Duplicate the first attempt; the receiver must deliver once.
	hook := &dropNth{dupNth: 1}
	w, got := wiredPair(t, k, WiredConfig{
		Latency: Constant(2 * time.Millisecond),
		Causal:  true,
		Faults:  hook,
		ARQ:     ARQConfig{Enabled: true, RTO: 20 * time.Millisecond},
	})
	w.Send(ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Dereg{MH: 7, NewMSS: 2})
	k.Run()
	if len(*got) != 1 {
		t.Fatalf("delivered %d messages, want exactly 1", len(*got))
	}
}

func TestARQLostAckOnlyCostsARetransmission(t *testing.T) {
	k := sim.NewKernel(1)
	// Attempt 1 is the data frame (delivered), attempt 2 its ack
	// (dropped): the sender retransmits, the receiver dedups and re-acks.
	hook := &dropNth{from: 2, count: 1}
	w, got := wiredPair(t, k, WiredConfig{
		Latency: Constant(2 * time.Millisecond),
		Causal:  true,
		Faults:  hook,
		ARQ:     ARQConfig{Enabled: true, RTO: 20 * time.Millisecond},
	})
	w.Send(ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Dereg{MH: 7, NewMSS: 2})
	k.Run()
	if len(*got) != 1 {
		t.Fatalf("delivered %d messages, want exactly 1 despite lost ack", len(*got))
	}
	if re, _ := w.ARQStats(); re != 1 {
		t.Errorf("retransmits = %d, want 1", re)
	}
}

func TestARQCausalOrderSurvivesReorderingLoss(t *testing.T) {
	k := sim.NewKernel(1)
	// Drop the first attempt of the first message only: without ARQ the
	// second message would arrive first and (under causal order) the
	// first would be lost forever; with ARQ both arrive, in causal order.
	hook := &dropNth{from: 1, count: 1}
	w, got := wiredPair(t, k, WiredConfig{
		Latency: Constant(2 * time.Millisecond),
		Causal:  true,
		Faults:  hook,
		ARQ:     ARQConfig{Enabled: true, RTO: 20 * time.Millisecond},
	})
	w.Send(ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Dereg{MH: 7, NewMSS: 2})
	w.Send(ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Dereg{MH: 8, NewMSS: 2})
	k.Run()
	if len(*got) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(*got))
	}
	if (*got)[0].(msg.Dereg).MH != 7 || (*got)[1].(msg.Dereg).MH != 8 {
		t.Fatalf("causal order violated: %v", *got)
	}
}

func TestWiredDownGateHoldsFramesUntilRestart(t *testing.T) {
	k := sim.NewKernel(1)
	down := true
	a, b := ids.MSS(1).Node(), ids.MSS(2).Node()
	w := NewWired(k, []ids.NodeID{a, b}, WiredConfig{
		Latency: Constant(2 * time.Millisecond),
		Causal:  true,
		ARQ:     ARQConfig{Enabled: true, RTO: 10 * time.Millisecond},
		Down: func(n ids.NodeID) bool {
			return n == b && down
		},
	}, nil)
	var got []msg.Message
	w.Register(a, HandlerFunc(func(ids.NodeID, msg.Message) {}))
	w.Register(b, HandlerFunc(func(_ ids.NodeID, m msg.Message) { got = append(got, m) }))
	w.Send(a, b, msg.Dereg{MH: 7, NewMSS: 2})
	k.Defer(50*time.Millisecond, func() { down = false })
	k.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want 1 after restart", len(got))
	}
	if _, out := w.ARQStats(); out != 0 {
		t.Errorf("outstanding = %d, want 0", out)
	}
	re, _ := w.ARQStats()
	if re == 0 {
		t.Error("expected retransmissions while the destination was down")
	}
}

func TestNonARQFaultDropIsPermanent(t *testing.T) {
	k := sim.NewKernel(1)
	hook := &dropNth{from: 1, count: 1}
	w, got := wiredPair(t, k, WiredConfig{
		Latency: Constant(2 * time.Millisecond),
		Faults:  hook,
	})
	w.Send(ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Dereg{MH: 7, NewMSS: 2})
	w.Send(ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Dereg{MH: 8, NewMSS: 2})
	k.Run()
	if len(*got) != 1 {
		t.Fatalf("delivered %d messages, want 1 (first was lost for good)", len(*got))
	}
}

func TestARQBackoffIsCapped(t *testing.T) {
	cfg := ARQConfig{RTO: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond}
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		40 * time.Millisecond,
		40 * time.Millisecond,
	}
	for i, w := range want {
		if got := cfg.backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestARQReceiverCompactsSeenSet(t *testing.T) {
	r := arqReceiver{ahead: make(map[uint64]bool)}
	for _, seq := range []uint64{2, 1, 3} {
		if !r.accept(seq) {
			t.Fatalf("first Accept(%d) = false", seq)
		}
	}
	for _, seq := range []uint64{1, 2, 3} {
		if r.accept(seq) {
			t.Fatalf("second Accept(%d) = true", seq)
		}
	}
	if len(r.ahead) != 0 || r.contig != 3 {
		t.Errorf("receiver not compacted: contig=%d ahead=%d", r.contig, len(r.ahead))
	}
	if !r.accept(5) || len(r.ahead) != 1 {
		t.Error("out-of-order accept should park in ahead set")
	}
}

// The tests below hold the ARQ record's lifetime rule: a record is
// retired when its message is acked and no scheduled event — an arrival,
// a fault duplicate, an ack on its way back, the armed retransmission —
// still names it, so a late event never finds its record serving another
// message, and every record is back when the kernel has drained.

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// arqPair is wiredPair under ARQ with scripted link delays (then none).
func arqPair(t *testing.T, k *sim.Kernel, hook *dropNth, rto time.Duration, delays ...time.Duration) (*Wired, *[]msg.Message) {
	t.Helper()
	return wiredPair(t, k, WiredConfig{
		Latency: &scriptedLatency{delays: delays}, Causal: true,
		Faults: hook, ARQ: ARQConfig{Enabled: true, RTO: rto},
	})
}

func wantGreets(t *testing.T, got []msg.Message, want ...ids.MH) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want hosts %v once each", got, want)
	}
	for i, m := range got {
		if m != (msg.Greet{MH: want[i]}) {
			t.Fatalf("delivery %d = %v, want Greet %d (all: %v)", i, m, want[i], got)
		}
	}
}

// TestARQDuplicateLandsAfterAck: the second copy of a duplicated frame is
// still in flight when the first has been delivered and acked. It keeps
// the record out — a message sent meanwhile takes another — and is
// stopped by the receiver's dedup and acked again.
func TestARQDuplicateLandsAfterAck(t *testing.T) {
	k := sim.NewKernel(1)
	// Samples: frame 1 copy 1 (1ms), copy 2 (20ms), its ack (1ms).
	w, got := arqPair(t, k, &dropNth{dupNth: 1}, ms(50), ms(1), ms(20), ms(1))
	a, b := ids.MSS(1).Node(), ids.MSS(2).Node()
	w.Send(a, b, msg.Greet{MH: 1})
	k.RunUntil(sim.Time(ms(5)))
	if _, out := w.ARQStats(); out != 0 || w.arq.Out() != 1 {
		t.Fatalf("at 5ms: %d un-acked, %d records out; want acked, and held by the duplicate", out, w.arq.Out())
	}
	w.Send(a, b, msg.Greet{MH: 2})
	if w.arq.Out() != 2 {
		t.Fatalf("second message shares the first one's record (%d out)", w.arq.Out())
	}
	k.Run()
	wantGreets(t, *got, 1, 2)
	if re, out := w.ARQStats(); re != 0 || out != 0 || w.arq.Out() != 0 {
		t.Errorf("drained: %d retransmissions, %d un-acked, %d records out; want none", re, out, w.arq.Out())
	}
}

// TestARQSpentTimerAfterAck: the retransmission timer of an acked frame
// is not cancelled; it holds the record until it fires and then does
// nothing — no transmission, no fault draw, no retransmission counted.
func TestARQSpentTimerAfterAck(t *testing.T) {
	k := sim.NewKernel(1)
	hook := &dropNth{}
	w, got := arqPair(t, k, hook, ms(30))
	a, b := ids.MSS(1).Node(), ids.MSS(2).Node()
	w.Send(a, b, msg.Greet{MH: 1})
	k.RunUntil(sim.Time(ms(10)))
	if _, out := w.ARQStats(); out != 0 || w.arq.Out() != 1 {
		t.Fatalf("at 10ms: %d un-acked, %d records out; want acked, and held by the timer", out, w.arq.Out())
	}
	w.Send(a, b, msg.Greet{MH: 2}) // must not take the record the timer names
	k.RunUntil(sim.Time(ms(35)))
	if w.arq.Out() != 1 {
		t.Fatalf("at 35ms: %d records out, want only the second message's", w.arq.Out())
	}
	k.Run()
	wantGreets(t, *got, 1, 2)
	if re, _ := w.ARQStats(); re != 0 || hook.n != 4 || w.arq.Out() != 0 {
		t.Errorf("%d retransmissions, %d transmission attempts, %d records out; want 0, 4 (two frames, two acks), 0",
			re, hook.n, w.arq.Out())
	}
}

// TestARQStaleAckNeverAcksAnotherMessage: a duplicated ack lands long
// after its frame was acked and its timer spent, while a later message
// on the same link has lost its first transmission and waits to be
// retransmitted. The late ack must find its own record — not one since
// recycled for the waiting message, which would then be lost for good.
func TestARQStaleAckNeverAcksAnotherMessage(t *testing.T) {
	k := sim.NewKernel(1)
	// Attempt 1 is frame 1, attempt 2 its ack (duplicated: copies fly 1ms
	// and 20ms), attempt 3 frame 2 (dropped), attempt 4 its retransmission.
	w, got := arqPair(t, k, &dropNth{dupNth: 2, from: 3, count: 1}, ms(10), ms(1), ms(1), ms(20))
	a, b := ids.MSS(1).Node(), ids.MSS(2).Node()
	w.Send(a, b, msg.Greet{MH: 1})
	k.RunUntil(sim.Time(ms(15))) // acked at 2ms, timer spent at 10ms, second ack due at 21ms
	if _, out := w.ARQStats(); out != 0 || w.arq.Out() != 1 {
		t.Fatalf("at 15ms: %d un-acked, %d records out; want acked, and held by the second ack", out, w.arq.Out())
	}
	w.Send(a, b, msg.Greet{MH: 2}) // dropped; retransmitted at 25ms
	k.RunUntil(sim.Time(ms(22)))
	if _, out := w.ARQStats(); out != 1 || w.arq.Out() != 1 {
		t.Fatalf("at 22ms: %d un-acked, %d records out; want the second message still waiting, alone", out, w.arq.Out())
	}
	k.Run()
	wantGreets(t, *got, 1, 2)
	if re, out := w.ARQStats(); re != 1 || out != 0 || w.arq.Out() != 0 {
		t.Errorf("drained: %d retransmissions, %d un-acked, %d records out; want 1, 0, 0", re, out, w.arq.Out())
	}
}

// TestARQSendFromInsideDelivery: handlers send, so a delivery over a link
// that drops, duplicates and delays takes records while its own is still
// referenced. A long ping-pong sees every message exactly once, in order.
func TestARQSendFromInsideDelivery(t *testing.T) {
	k := sim.NewKernel(3)
	a, b := ids.MSS(1).Node(), ids.MSS(2).Node()
	w := NewWired(k, []ids.NodeID{a, b}, WiredConfig{
		Latency: Uniform{Lo: ms(2), Hi: ms(8)}, Causal: true,
		Faults: &seededFaults{rng: k.RNG().Fork()},
		ARQ:    ARQConfig{Enabled: true, RTO: ms(20), MaxBackoff: ms(80)},
	}, nil)
	var got []ids.MH
	bounce := func(self, peer ids.NodeID) Handler {
		return HandlerFunc(func(from ids.NodeID, m msg.Message) {
			mh := m.(msg.Greet).MH
			got = append(got, mh)
			if mh < 500 {
				w.Send(self, peer, msg.Greet{MH: mh + 1})
			}
			if from != peer || m != (msg.Greet{MH: mh}) {
				t.Errorf("delivery %d changed under the handler: from %v, %v", mh, from, m)
			}
		})
	}
	w.Register(a, bounce(a, b))
	w.Register(b, bounce(b, a))
	w.Send(a, b, msg.Greet{MH: 1})
	k.Run()
	if len(got) != 500 {
		t.Fatalf("delivered %d messages, want 500", len(got))
	}
	for i, mh := range got {
		if mh != ids.MH(i+1) {
			t.Fatalf("delivery %d carried %d", i, mh)
		}
	}
	if re, out := w.ARQStats(); re == 0 || out != 0 || w.arq.Out() != 0 || w.frames.Out() != 0 {
		t.Errorf("drained: %d retransmissions, %d un-acked, %d ARQ and %d frame records out", re, out, w.arq.Out(), w.frames.Out())
	}
}

// TestARQReceiverDownThenRestart: while the receiver is down every
// arrival is dropped un-acked and the sender keeps retrying with its one
// record a message; after the restart each message arrives exactly once
// even though retransmissions and duplicates of it are still in flight.
func TestARQReceiverDownThenRestart(t *testing.T) {
	k := sim.NewKernel(5)
	down := true
	a, b := ids.MSS(1).Node(), ids.MSS(2).Node()
	var got []msg.Message
	w := NewWired(k, []ids.NodeID{a, b}, WiredConfig{
		Latency: Uniform{Lo: ms(2), Hi: ms(8)}, Causal: true,
		Faults: &seededFaults{rng: k.RNG().Fork()},
		ARQ:    ARQConfig{Enabled: true, RTO: ms(10), MaxBackoff: ms(40)},
		Down:   func(n ids.NodeID) bool { return down && n == b },
	}, nil)
	w.Register(a, nopHandler())
	w.Register(b, HandlerFunc(func(_ ids.NodeID, m msg.Message) { got = append(got, m) }))
	for mh := ids.MH(1); mh <= 20; mh++ {
		w.Send(a, b, msg.Greet{MH: mh})
	}
	k.RunUntil(sim.Time(ms(200)))
	if re, out := w.ARQStats(); len(got) != 0 || out != 20 || w.arq.Out() != 20 || re < 60 {
		t.Fatalf("receiver down: %d delivered, %d un-acked, %d records out, %d retransmissions", len(got), out, w.arq.Out(), re)
	}
	down = false
	k.Run()
	seen := map[ids.MH]int{}
	for _, m := range got {
		seen[m.(msg.Greet).MH]++
	}
	for mh := ids.MH(1); mh <= 20; mh++ {
		if seen[mh] != 1 {
			t.Errorf("host %d delivered %d times, want once", mh, seen[mh])
		}
	}
	if _, out := w.ARQStats(); len(got) != 20 || out != 0 || w.arq.Out() != 0 {
		t.Errorf("drained: %d delivered, %d un-acked, %d records out", len(got), out, w.arq.Out())
	}
}
