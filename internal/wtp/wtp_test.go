package wtp

import (
	"slices"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
)

// pipe wires a Sender to a Receiver over a lossy constant-latency link
// on one kernel, mimicking what netsim.Wireless does in production.
type pipe struct {
	k       *sim.Kernel
	s       *Sender
	r       *Receiver
	latency time.Duration

	// dropData[n] drops the nth data-frame transmission (1-based);
	// dropAcks does the same for acks.
	dataSent int
	ackSent  int
	dropData map[int]bool
	dropAcks map[int]bool

	delivered  []msg.Message
	lastHandUp sim.Time // when the receiver last handed messages up
}

func newPipe(t *testing.T, cfg Config, latency time.Duration) *pipe {
	t.Helper()
	p := &pipe{
		k:        sim.NewKernel(1),
		latency:  latency,
		dropData: map[int]bool{},
		dropAcks: map[int]bool{},
	}
	p.r = NewReceiver(cfg)
	p.s = NewSender(p.k, cfg, func(f msg.WtpData) {
		p.dataSent++
		if p.dropData[p.dataSent] {
			return
		}
		// What is in flight is the pipe's: the sender hands the frame's
		// array on once an ack covers it.
		f.Inner = slices.Clone(f.Inner)
		p.k.Defer(p.latency, func() {
			deliver, ack, ok := p.r.Accept(f)
			if !ok {
				return
			}
			if len(deliver) > 0 {
				p.delivered = append(p.delivered, kept(deliver)...)
				p.lastHandUp = p.k.Now()
			}
			p.ackSent++
			if p.dropAcks[p.ackSent] {
				return
			}
			ack.Sacks = slices.Clone(ack.Sacks) // valid until the next Accept
			p.k.Defer(p.latency, func() { p.s.OnAck(ack) })
		})
	})
	return p
}

func req(seq uint32) msg.Message {
	return msg.ResultDeliver{Req: ids.RequestID{Origin: 1, Seq: seq}, Payload: []byte("r")}
}

// envelopes keeps ms as a frame carries them.
func envelopes(ms ...msg.Message) []msg.Envelope {
	out := make([]msg.Envelope, len(ms))
	for i, m := range ms {
		out[i] = msg.EnvelopeOf(m)
	}
	return out
}

// kept boxes what a hand-up shows, to keep past the next Accept.
func kept(in []msg.Envelope) []msg.Message {
	out := make([]msg.Message, len(in))
	for i := range in {
		out[i] = msg.Keep(in[i].Message())
	}
	return out
}

func (p *pipe) queueN(n int) {
	for i := 0; i < n; i++ {
		p.s.Queue(req(uint32(i + 1)))
	}
}

func (p *pipe) assertInOrder(t *testing.T, n int) {
	t.Helper()
	if len(p.delivered) != n {
		t.Fatalf("delivered %d messages, want %d", len(p.delivered), n)
	}
	for i, m := range p.delivered {
		rd, ok := m.(msg.ResultDeliver)
		if !ok {
			t.Fatalf("delivered[%d] is %T", i, m)
		}
		if rd.Req.Seq != uint32(i+1) {
			t.Fatalf("delivered[%d] has seq %d, want %d (out of order)", i, rd.Req.Seq, i+1)
		}
	}
}

func TestCoalescesUpToMTU(t *testing.T) {
	cfg := Config{Enabled: true, MTU: 10 * msg.WireSize(req(1)), CoalesceDelay: 5 * time.Millisecond}
	p := newPipe(t, cfg, 2*time.Millisecond)
	p.queueN(25)
	p.k.Run()
	p.assertInOrder(t, 25)
	// 25 equal-size messages under a 10-message MTU: the budget closes
	// two full frames; the tail flushes on the coalescing timer.
	if p.s.FramesSent != 3 {
		t.Errorf("FramesSent = %d, want 3", p.s.FramesSent)
	}
	if p.s.MsgsFramed != 25 {
		t.Errorf("MsgsFramed = %d, want 25", p.s.MsgsFramed)
	}
}

func TestCoalesceDelayFlushesPartialFrame(t *testing.T) {
	cfg := Config{Enabled: true, CoalesceDelay: 3 * time.Millisecond}
	p := newPipe(t, cfg, time.Millisecond)
	p.s.Queue(req(1))
	if p.s.FramesSent != 0 {
		t.Fatalf("frame sent before coalescing delay elapsed")
	}
	p.k.Run()
	p.assertInOrder(t, 1)
	if p.s.FramesSent != 1 {
		t.Errorf("FramesSent = %d, want 1", p.s.FramesSent)
	}
}

func TestImmediateFlushWithNegativeDelay(t *testing.T) {
	cfg := Config{Enabled: true, CoalesceDelay: -1}
	p := newPipe(t, cfg, time.Millisecond)
	p.s.Queue(req(1))
	if p.s.FramesSent != 1 {
		t.Fatalf("FramesSent = %d, want immediate flush", p.s.FramesSent)
	}
	p.k.Run()
	p.assertInOrder(t, 1)
}

func TestStopAndWaitDegenerate(t *testing.T) {
	// Window 1 + MTU 1 + immediate flush: one message per frame, one
	// frame in flight — the E15 baseline configuration.
	cfg := Config{Enabled: true, Window: 1, MTU: 1, CoalesceDelay: -1}
	p := newPipe(t, cfg, 2*time.Millisecond)
	p.queueN(5)
	if got := p.s.Outstanding() - p.s.Backlog(); p.s.inflight() != 1 {
		t.Fatalf("inflight = %d (outstanding-backlog %d), want 1", p.s.inflight(), got)
	}
	p.k.Run()
	p.assertInOrder(t, 5)
	if p.s.FramesSent != 5 {
		t.Errorf("FramesSent = %d, want 5", p.s.FramesSent)
	}
}

func TestSlowStartGrowsWindow(t *testing.T) {
	cfg := Config{Enabled: true, MTU: 1, CoalesceDelay: -1, InitialCwnd: 2}
	p := newPipe(t, cfg, 2*time.Millisecond)
	start := p.s.Cwnd()
	p.queueN(20)
	p.k.Run()
	p.assertInOrder(t, 20)
	if p.s.Cwnd() <= start {
		t.Errorf("cwnd did not grow: %v -> %v", start, p.s.Cwnd())
	}
	if p.s.Retransmits != 0 {
		t.Errorf("unexpected retransmissions on a clean link: %d", p.s.Retransmits)
	}
}

func TestRTOBackoffAndKarn(t *testing.T) {
	cfg := Config{Enabled: true, MTU: 1, CoalesceDelay: -1, InitialRTO: 20 * time.Millisecond}
	p := newPipe(t, cfg, 2*time.Millisecond)
	// Drop the first two transmissions of the only frame.
	p.dropData[1] = true
	p.dropData[2] = true
	p.s.Queue(req(1))
	p.k.Run()
	p.assertInOrder(t, 1)
	if p.s.Retransmits != 2 {
		t.Errorf("Retransmits = %d, want 2", p.s.Retransmits)
	}
	// Karn's rule: the retransmitted frame must not have produced an
	// RTT sample, so srtt stays unset.
	if p.s.SRTT() != 0 {
		t.Errorf("retransmitted frame produced an RTT sample: srtt=%v", p.s.SRTT())
	}
}

func TestRTTSampleDrivesRTO(t *testing.T) {
	var samples int
	cfg := Config{
		Enabled: true, MTU: 1, CoalesceDelay: -1,
		OnRTTSample: func(rtt, rto time.Duration) { samples++ },
	}
	p := newPipe(t, cfg, 5*time.Millisecond)
	p.queueN(4)
	p.k.Run()
	p.assertInOrder(t, 4)
	if samples == 0 {
		t.Fatal("no RTT samples on a clean link")
	}
	if p.s.SRTT() != 10*time.Millisecond {
		t.Errorf("srtt = %v, want 10ms (constant 2x5ms round trip)", p.s.SRTT())
	}
	// rttvar decays on a jitter-free link, so the RTO settles at the
	// granularity-guarded floor: srtt plus one MinRTO of slack.
	if want := p.s.SRTT() + cfg.minRTO(); p.s.RTO() != want {
		t.Errorf("rto = %v, want srtt+MinRTO = %v", p.s.RTO(), want)
	}
}

func TestLossHalvesCwnd(t *testing.T) {
	var cuts int
	cfg := Config{
		Enabled: true, MTU: 1, CoalesceDelay: -1,
		InitialRTO: 20 * time.Millisecond, InitialCwnd: 8,
		OnCwnd: func(int) {},
	}
	cfg.OnRetransmit = func() { cuts++ }
	p := newPipe(t, cfg, 2*time.Millisecond)
	p.dropData[3] = true // lose one frame mid-window
	p.queueN(8)
	p.k.Run()
	p.assertInOrder(t, 8)
	if p.s.Retransmits == 0 {
		t.Fatal("expected at least one retransmission")
	}
	// After a single loss event the window must have been cut from its
	// pre-loss value and recovered by at most additive growth.
	if p.s.Cwnd() >= 8 {
		t.Errorf("cwnd = %v, want < 8 after a loss event", p.s.Cwnd())
	}
}

func TestFastRetransmitViaSacks(t *testing.T) {
	cfg := Config{
		Enabled: true, MTU: 1, CoalesceDelay: -1,
		InitialCwnd: 8, InitialRTO: time.Second, DupThresh: 3,
	}
	p := newPipe(t, cfg, 2*time.Millisecond)
	p.dropData[1] = true // lose the head; sacks for 2..8 must repair it
	p.queueN(8)
	p.k.Run()
	p.assertInOrder(t, 8)
	if p.s.FastRetransmits == 0 {
		t.Error("expected a sack-gap fast retransmission")
	}
	// The huge InitialRTO proves recovery came from the sack gap, not a
	// timeout: the last message must be handed up far below the RTO. (The
	// kernel drains later: spent timers fire as no-ops.)
	if now := time.Duration(p.lastHandUp); now >= time.Second {
		t.Errorf("recovery took %v, expected fast retransmit well under the 1s RTO", now)
	}
}

func TestMaxRetriesResetsLink(t *testing.T) {
	var droppedMsgs int
	cfg := Config{
		Enabled: true, MTU: 1, CoalesceDelay: -1,
		InitialRTO: 5 * time.Millisecond, MaxRetries: 3,
		OnReset: func(n int) { droppedMsgs += n },
	}
	p := newPipe(t, cfg, time.Millisecond)
	for i := 1; i <= 64; i++ {
		p.dropData[i] = true // black-hole the link
	}
	p.queueN(2)
	p.k.Run()
	if p.s.Resets != 1 {
		t.Fatalf("Resets = %d, want 1", p.s.Resets)
	}
	if droppedMsgs != 2 {
		t.Errorf("OnReset reported %d dropped messages, want 2", droppedMsgs)
	}
	if p.s.Epoch() != 1 {
		t.Errorf("epoch = %d, want 1 after reset", p.s.Epoch())
	}
	if p.s.Outstanding() != 0 || p.s.Backlog() != 0 {
		t.Errorf("link not empty after reset: outstanding=%d backlog=%d", p.s.Outstanding(), p.s.Backlog())
	}
	// The link works again on the new epoch.
	p.dropData = map[int]bool{}
	p.s.Queue(req(1))
	p.k.Run()
	if len(p.delivered) != 1 {
		t.Fatalf("delivered %d messages on the new epoch, want 1", len(p.delivered))
	}
}

func TestReceiverAdoptsNewEpoch(t *testing.T) {
	r := NewReceiver(Config{Enabled: true})
	if _, _, ok := r.Accept(msg.WtpData{Epoch: 0, Seq: 1, Inner: envelopes(req(1))}); !ok {
		t.Fatal("epoch-0 frame rejected")
	}
	// A frame from a newer epoch resets receiver state.
	deliver, ack, ok := r.Accept(msg.WtpData{Epoch: 2, Seq: 1, Inner: envelopes(req(9))})
	if !ok || len(deliver) != 1 {
		t.Fatalf("new-epoch frame not delivered: ok=%v deliver=%d", ok, len(deliver))
	}
	if ack.Epoch != 2 || ack.Cum != 1 {
		t.Errorf("ack = %+v, want epoch 2 cum 1", ack)
	}
	// Frames from the dead epoch are ignored without an ack.
	if _, _, ok := r.Accept(msg.WtpData{Epoch: 0, Seq: 2}); ok {
		t.Error("dead-epoch frame accepted")
	}
}

func TestReceiverReordersAndSacks(t *testing.T) {
	r := NewReceiver(Config{Enabled: true})
	// Frames 2 and 3 arrive before 1.
	deliver, ack, _ := r.Accept(msg.WtpData{Seq: 2, Inner: envelopes(req(2))})
	if len(deliver) != 0 {
		t.Fatalf("out-of-order frame delivered early")
	}
	if ack.Cum != 0 || len(ack.Sacks) != 1 || ack.Sacks[0] != 2 {
		t.Fatalf("ack = %+v, want cum 0 sacks [2]", ack)
	}
	_, ack, _ = r.Accept(msg.WtpData{Seq: 3, Inner: envelopes(req(3))})
	if len(ack.Sacks) != 2 || ack.Sacks[0] != 2 || ack.Sacks[1] != 3 {
		t.Fatalf("ack = %+v, want sacks [2 3]", ack)
	}
	deliver, ack, _ = r.Accept(msg.WtpData{Seq: 1, Inner: envelopes(req(1))})
	if len(deliver) != 3 {
		t.Fatalf("filling the hole delivered %d messages, want 3", len(deliver))
	}
	if ack.Cum != 3 || len(ack.Sacks) != 0 {
		t.Errorf("ack = %+v, want cum 3 no sacks", ack)
	}
}

func TestReceiverDropsDuplicates(t *testing.T) {
	r := NewReceiver(Config{Enabled: true})
	f := msg.WtpData{Seq: 1, Inner: envelopes(req(1))}
	deliver, _, _ := r.Accept(f)
	if len(deliver) != 1 {
		t.Fatal("first copy not delivered")
	}
	deliver, ack, ok := r.Accept(f)
	if !ok || len(deliver) != 0 {
		t.Fatalf("duplicate redelivered: ok=%v deliver=%d", ok, len(deliver))
	}
	if ack.Cum != 1 {
		t.Errorf("duplicate must still re-ack: cum = %d, want 1", ack.Cum)
	}
	if r.Duplicates != 1 {
		t.Errorf("Duplicates = %d, want 1", r.Duplicates)
	}
	// A buffered-ahead duplicate counts too, and an empty frame must
	// still advance the watermark (presence beats payload).
	r.Accept(msg.WtpData{Seq: 3})
	r.Accept(msg.WtpData{Seq: 3})
	if r.Duplicates != 2 {
		t.Errorf("Duplicates = %d, want 2", r.Duplicates)
	}
	deliver, ack, _ = r.Accept(msg.WtpData{Seq: 2, Inner: envelopes(req(2))})
	if len(deliver) != 1 || ack.Cum != 3 {
		t.Errorf("empty frame wedged the watermark: deliver=%d cum=%d, want 1/3", len(deliver), ack.Cum)
	}
}

func TestLossyLinkDeliversEverythingInOrder(t *testing.T) {
	cfg := Config{Enabled: true, MTU: 1, CoalesceDelay: -1, InitialRTO: 30 * time.Millisecond}
	p := newPipe(t, cfg, 2*time.Millisecond)
	// Deterministic ~20% pattern across both directions.
	for i := 1; i <= 400; i += 5 {
		p.dropData[i] = true
		p.dropAcks[i] = true
	}
	p.queueN(100)
	p.k.Run()
	p.assertInOrder(t, 100)
	if p.s.Outstanding() != 0 || p.s.Backlog() != 0 {
		t.Errorf("link not drained: outstanding=%d backlog=%d", p.s.Outstanding(), p.s.Backlog())
	}
}

func TestWindowedBeatsStopAndWaitGoodput(t *testing.T) {
	run := func(cfg Config) time.Duration {
		p := newPipe(t, cfg, 10*time.Millisecond)
		for i := 1; i <= 1000; i += 10 { // 10% deterministic data loss
			p.dropData[i] = true
		}
		p.queueN(200)
		p.k.Run()
		p.assertInOrder(t, 200)
		return time.Duration(p.lastHandUp)
	}
	windowed := run(Config{Enabled: true, MTU: 1, CoalesceDelay: -1, InitialRTO: 60 * time.Millisecond})
	stopwait := run(Config{Enabled: true, Window: 1, MTU: 1, CoalesceDelay: -1, InitialRTO: 60 * time.Millisecond})
	if stopwait < 2*windowed {
		t.Errorf("windowed=%v stop-and-wait=%v: want >=2x speedup at 10%% loss", windowed, stopwait)
	}
}
