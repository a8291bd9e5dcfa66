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

func (d *dropNth) OnWired(from, to ids.NodeID, m msg.Message) LinkFault {
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
	k.After(50*time.Millisecond, func() { down = false })
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
