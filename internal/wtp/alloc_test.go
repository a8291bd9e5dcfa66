package wtp

import (
	"slices"
	"testing"

	"repro/internal/msg"
	"repro/internal/sim"
)

// senderAllocs warms a sender on cycle and returns the cycle's
// steady-state allocations. The transmissions land in out, which the
// cycle empties.
func senderAllocs(cfg Config, cycle func(k *sim.Kernel, s *Sender, out *[]msg.WtpData)) float64 {
	k := sim.NewKernel(1)
	out := make([]msg.WtpData, 0, 8)
	s := NewSender(k, cfg, func(f msg.WtpData) { out = append(out, f) })
	run := func() {
		cycle(k, s, &out)
		out = out[:0]
		k.Run() // the spent retransmission timers fire as no-ops
	}
	for i := 0; i < 64; i++ {
		run()
	}
	return testing.AllocsPerRun(200, run)
}

// ackAll acknowledges everything transmitted so far.
func ackAll(s *Sender, out []msg.WtpData) {
	s.OnAck(msg.WtpAck{Epoch: s.Epoch(), Cum: out[len(out)-1].Seq})
}

// TestSenderAllocBudget: once warm, a frame costs its sender nothing
// from Queue through the coalescing flush, the transmission and the ack:
// the queue keeps envelopes, the frame copies them into an array an
// acked frame handed on, and the flush and retransmission timers are
// recycled records. A timeout retransmission
// and a fast retransmission cost nothing more. (At the parent, which
// cloned each frame's message list: 1, 1 and 2.)
func TestSenderAllocBudget(t *testing.T) {
	var m msg.Message = req(1)
	coalesced := Config{Enabled: true}
	if avg := senderAllocs(coalesced, func(k *sim.Kernel, s *Sender, out *[]msg.WtpData) {
		s.Queue(m)
		s.Queue(m)
		k.RunUntil(k.Now() + sim.Time(coalesced.coalesceDelay())) // the flush
		ackAll(s, *out)
	}); avg != 0 {
		t.Errorf("queue, flush, transmit, ack: %.1f allocs per frame, budget 0", avg)
	}
	if avg := senderAllocs(coalesced, func(k *sim.Kernel, s *Sender, out *[]msg.WtpData) {
		s.Queue(m)
		for len(*out) < 2 { // the first transmission is lost: wait for the timeout
			k.Step()
		}
		ackAll(s, *out)
	}); avg != 0 {
		t.Errorf("timeout retransmission: %.1f allocs per frame, budget 0", avg)
	}
	sacks := make([]uint64, 1)
	if avg := senderAllocs(Config{Enabled: true, CoalesceDelay: -1, DupThresh: 1}, func(k *sim.Kernel, s *Sender, out *[]msg.WtpData) {
		s.Queue(m) // frame a, lost
		s.Queue(m) // frame b, sacked: a goes again at once
		a, b := (*out)[0].Seq, (*out)[1].Seq
		sacks[0] = b
		s.OnAck(msg.WtpAck{Epoch: s.Epoch(), Cum: a - 1, Sacks: sacks})
		if len(*out) != 3 || (*out)[2].Seq != a {
			t.Fatalf("no fast retransmission of frame %d: sent %v", a, *out)
		}
		ackAll(s, *out)
	}); avg != 0 {
		t.Errorf("fast retransmission: %.1f allocs per two frames, budget 0", avg)
	}
}

// TestReceiverAllocBudget: a frame that arrives in order is handed up as
// its own list and costs nothing; out of order, it is copied into an
// array the receiver reuses, and each ack's selective blocks are built in
// a buffer the receiver owns, so that costs nothing either. (At the
// parent, which made each ack's sack list: 3 for two holes filled.)
func TestReceiverAllocBudget(t *testing.T) {
	r := NewReceiver(Config{Enabled: true})
	inner := envelopes(req(1), req(2))
	seq := uint64(0)
	accept := func(s uint64) { r.Accept(msg.WtpData{Seq: s, Inner: inner}) }
	inOrder := func() {
		seq++
		accept(seq)
	}
	// Frames +2 and +4 park; +1 fills the first hole and hands up +1 and +2
	// with +4 still parked; +3 fills the last. Three acks carry sacks.
	holes := func() {
		accept(seq + 2)
		accept(seq + 4)
		accept(seq + 1)
		accept(seq + 3)
		seq += 4
	}
	for i := 0; i < 64; i++ {
		inOrder()
		holes()
	}
	if avg := testing.AllocsPerRun(200, inOrder); avg != 0 {
		t.Errorf("in-order frame: %.1f allocs, budget 0", avg)
	}
	if avg := testing.AllocsPerRun(200, holes); avg != 0 {
		t.Errorf("two holes filled: %.1f allocs, budget 0", avg)
	}
}

// TestAcceptContract: a hand-up and an ack's Sacks are valid until the
// next Accept, which clears the hand-up rather than keep the results
// alive; a frame that waits for a hole is copied, so the caller may
// rewrite the frame's list as soon as Accept returns — netsim's radio
// record is recycled once the frame's handlers return.
func TestAcceptContract(t *testing.T) {
	r := NewReceiver(Config{Enabled: true})
	list := make([]msg.Envelope, 1) // the caller's record, reused by every frame
	data := func(seq uint32) msg.WtpData {
		list[0] = msg.EnvelopeOf(req(seq))
		return msg.WtpData{Seq: uint64(seq), Inner: list}
	}
	want := [][]uint64{{2}, {2, 4}, {2, 3, 4}}
	for i, seq := range []uint32{2, 4, 3} {
		_, ack, _ := r.Accept(data(seq))
		if !slices.Equal(ack.Sacks, want[i]) {
			t.Errorf("ack of frame %d: sacks %v, want %v", seq, ack.Sacks, want[i])
		}
	}
	deliver, _, _ := r.Accept(data(1))
	if got := messageIDs(kept(deliver)); !slices.Equal(got, []uint32{1, 2, 3, 4}) {
		t.Fatalf("filling the hole handed up %v, want [1 2 3 4]", got)
	}
	r.Accept(data(5)) // in order: handed up as its own list
	if slices.ContainsFunc(deliver, func(e msg.Envelope) bool { return e.Message().Kind() != msg.KindInvalid }) {
		t.Errorf("the next Accept left the earlier hand-up holding %v", kept(deliver))
	}
	for _, seq := range []uint32{7, 9, 6} { // park, sack and drain again
		r.Accept(data(seq))
	}
	if deliver, _, _ = r.Accept(data(8)); !slices.Equal(messageIDs(kept(deliver)), []uint32{8, 9}) {
		t.Errorf("frame 8 handed up %v, want [8 9]", messageIDs(kept(deliver)))
	}
	if r.Cum() != 9 {
		t.Errorf("cum = %d, want 9", r.Cum())
	}
}
