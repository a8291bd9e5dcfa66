package wtp

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
)

// linkModel runs a Sender and a Receiver over a pipe the input drives
// step by step — queue, deliver, drop, duplicate or reorder a data frame
// or an ack, let time pass, reset — and checks them against what the
// link owes its user:
//   - within each epoch the receiver hands up exactly the queued messages,
//     in order, each once (a prefix of them until the drain), each with
//     the payload bytes it was queued with — though the pipe, like
//     netsim's radio record, copies a frame's list at transmission and
//     wipes the copy it showed Accept once Accept returns, and the sender
//     hands an acked frame's message array on to a later frame;
//   - a reset drops exactly the messages of the epoch no ack has covered,
//     which is what OnReset reports;
//   - a frame is only ever sent in the sender's current epoch, is never
//     sent again once an ack covered it, carries the same messages every
//     time, and a timeout retransmission happens exactly when the timer
//     armed at its latest transmission is due — so a stale timer never
//     acts, on a recycled frame or on one of a later epoch;
//   - at the drain, Outstanding() and Backlog() are 0 and every
//     transmission is a first one or a counted retransmission.
type linkModel struct {
	t     *testing.T
	cfg   Config
	k     *sim.Kernel
	s     *Sender
	r     *Receiver
	data  []msg.WtpData // data frames in flight
	acks  []msg.WtpAck  // acks in flight
	inAck bool          // inside Sender.OnAck, where fast retransmissions happen

	nextID        uint32
	queued        map[uint64][]uint32    // by epoch: message ids in queue order
	handed        map[uint64]int         // by epoch: how many of them were handed up
	sent          map[[2]uint64][]uint32 // by (epoch, seq): the frame's message ids
	tx            map[[2]uint64]int      // transmissions so far
	due           map[[2]uint64]sim.Time // when the timer of the latest one fires
	acked         map[[2]uint64]bool     // an ack the sender processed covered it
	ackedMsgs     map[uint64]int         // by epoch: messages in acked frames
	transmissions int64
}

func newLinkModel(t *testing.T) *linkModel {
	l := &linkModel{
		t: t, k: sim.NewKernel(1),
		queued: map[uint64][]uint32{}, handed: map[uint64]int{},
		sent: map[[2]uint64][]uint32{}, tx: map[[2]uint64]int{}, due: map[[2]uint64]sim.Time{},
		acked: map[[2]uint64]bool{}, ackedMsgs: map[uint64]int{},
	}
	l.cfg = Config{
		Enabled: true, Window: 4, InitialCwnd: 2, MTU: 3 * msg.WireSize(message(1)),
		CoalesceDelay: 2 * time.Millisecond, DupThresh: 2, MaxSacks: 3, MaxRetries: 4,
		InitialRTO: 8 * time.Millisecond, MinRTO: 4 * time.Millisecond, MaxRTO: 30 * time.Millisecond,
		OnReset: l.onReset,
	}
	l.s = NewSender(l.k, l.cfg, l.transmit)
	l.r = NewReceiver(l.cfg)
	return l
}

func messageIDs(ms []msg.Message) []uint32 {
	out := make([]uint32, len(ms))
	for i, m := range ms {
		out[i] = m.(msg.ResultDeliver).Req.Seq
	}
	return out
}

// message is the model's message id: a result whose payload spells the id
// out, so a hand-up can be checked byte for byte.
func message(id uint32) msg.Message {
	return msg.ResultDeliver{Req: ids.RequestID{Origin: 1, Seq: id}, Payload: binary.BigEndian.AppendUint32(nil, id)}
}

func (l *linkModel) transmit(f msg.WtpData) {
	l.transmissions++
	now, key := l.k.Now(), [2]uint64{f.Epoch, f.Seq}
	if f.Epoch != l.s.Epoch() {
		l.t.Fatalf("at %v: frame %v sent in epoch %d", now, key, l.s.Epoch())
	}
	if l.acked[key] {
		l.t.Fatalf("at %v: frame %v sent again after an ack covered it", now, key)
	}
	got := messageIDs(kept(f.Inner))
	if prev, ok := l.sent[key]; !ok {
		l.sent[key] = got
	} else if !slices.Equal(prev, got) {
		l.t.Fatalf("at %v: frame %v carried %v, now %v", now, key, prev, got)
	} else if !l.inAck && now != l.due[key] {
		l.t.Fatalf("at %v: frame %v retransmitted on a timeout, its timer is due at %v", now, key, l.due[key])
	}
	l.tx[key]++
	d, max := l.s.RTO(), l.cfg.maxRTO()
	for i := 1; i < l.tx[key] && d < max; i++ {
		d *= 2
	}
	l.due[key] = now + sim.Time(min(d, max))
	f.Inner = slices.Clone(f.Inner) // the sender's, until an ack covers the frame
	l.data = append(l.data, f)
}

func (l *linkModel) onReset(dropped int) {
	e := l.s.Epoch() - 1
	if want := len(l.queued[e]) - l.ackedMsgs[e]; dropped != want {
		l.t.Fatalf("reset of epoch %d dropped %d messages, want %d (%d queued, %d acked)",
			e, dropped, want, len(l.queued[e]), l.ackedMsgs[e])
	}
}

func (l *linkModel) queue() {
	l.nextID++
	e := l.s.Epoch()
	l.queued[e] = append(l.queued[e], l.nextID)
	l.s.Queue(message(l.nextID))
}

func (l *linkModel) accept(f msg.WtpData) {
	shown := slices.Clone(f.Inner)
	f.Inner = shown
	deliver, ack, ok := l.r.Accept(f)
	if !ok {
		return
	}
	q := l.queued[f.Epoch]
	for _, m := range kept(deliver) {
		id := m.(msg.ResultDeliver).Req.Seq
		if n := l.handed[f.Epoch]; n >= len(q) || q[n] != id {
			l.t.Fatalf("epoch %d: handed up message %d after %d of %v", f.Epoch, id, n, q)
		}
		if want := message(id); !reflect.DeepEqual(m, want) {
			l.t.Fatalf("epoch %d: handed up %#v, queued %#v", f.Epoch, m, want)
		}
		l.handed[f.Epoch]++
	}
	ack.Sacks = slices.Clone(ack.Sacks) // the receiver's until the next Accept
	l.acks = append(l.acks, ack)
	clear(shown) // the record is recycled
}

func (l *linkModel) ack(a msg.WtpAck) {
	if a.Epoch == l.s.Epoch() {
		covered := slices.Clone(a.Sacks)
		for seq := uint64(1); seq <= a.Cum; seq++ {
			covered = append(covered, seq)
		}
		for _, seq := range covered {
			key := [2]uint64{a.Epoch, seq}
			ids, ok := l.sent[key]
			if !ok {
				l.t.Fatalf("ack %+v covers frame %v, which was never sent", a, key)
			}
			if !l.acked[key] {
				l.acked[key] = true
				l.ackedMsgs[a.Epoch] += len(ids)
			}
		}
	}
	l.inAck = true
	l.s.OnAck(a)
	l.inAck = false
}

// take removes and returns element i of a flight.
func take[T any](flight *[]T, i int) T {
	x := (*flight)[i]
	*flight = slices.Delete(*flight, i, i+1)
	return x
}

func (l *linkModel) step(b byte) {
	op, arg := b&7, int(b>>3)
	switch op {
	case 0:
		l.queue()
	case 1:
		for i := 0; i <= arg%4; i++ {
			l.queue()
		}
	case 2, 3, 4:
		if len(l.data) == 0 {
			return
		}
		i := arg % len(l.data)
		switch op {
		case 2:
			l.accept(take(&l.data, i))
		case 3:
			take(&l.data, i)
		case 4:
			l.accept(l.data[i]) // a duplicate: the original stays in flight
		}
	case 5, 6:
		if len(l.acks) == 0 {
			return
		}
		if a := take(&l.acks, arg%len(l.acks)); op == 5 {
			l.ack(a)
		}
	case 7:
		if arg == 31 {
			l.s.Reset()
			return
		}
		l.k.RunUntil(l.k.Now() + sim.Time(arg)*sim.Time(time.Millisecond))
	}
}

// drain delivers everything in flight, in order and without loss, after
// every timer, until nothing is left.
func (l *linkModel) drain() {
	for {
		for len(l.data) > 0 || len(l.acks) > 0 {
			if len(l.data) > 0 {
				l.accept(take(&l.data, 0))
			} else {
				l.ack(take(&l.acks, 0))
			}
		}
		if !l.k.Step() {
			break
		}
	}
	if l.s.Outstanding() != 0 || l.s.Backlog() != 0 {
		l.t.Fatalf("drained link: outstanding %d backlog %d", l.s.Outstanding(), l.s.Backlog())
	}
	e := l.s.Epoch()
	if l.handed[e] != len(l.queued[e]) {
		l.t.Fatalf("drained link: epoch %d handed up %d of %d messages", e, l.handed[e], len(l.queued[e]))
	}
	if want := l.s.FramesSent + l.s.Retransmits; l.transmissions != want {
		l.t.Fatalf("%d transmissions, %d first + %d retransmissions", l.transmissions, l.s.FramesSent, l.s.Retransmits)
	}
}

// run plays the steps in, then drains.
func (l *linkModel) run(in []byte) {
	for _, b := range in {
		l.step(b)
	}
	l.drain()
}

// randomSteps is a seeded run of 300 steps for the corpus.
func randomSteps(seed int64) []byte {
	in := make([]byte, 300)
	rand.New(rand.NewSource(seed)).Read(in)
	return in
}

func FuzzLink(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1 << 3, 7 << 3, 2, 2, 5, 5, 7 << 3})
	f.Add([]byte{1 << 3, 1 << 3, 7<<3 | 7, 3, 2, 2, 5, 5, 5, 7<<3 | 7, 2, 5})
	f.Add([]byte{1 << 3, 7<<3 | 7, 4, 2, 5, 5, 31<<3 | 7, 0, 7<<3 | 7, 2, 5})
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(randomSteps(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) { newLinkModel(t).run(in) })
}

// TestFuzzLinkCorpusCoverage: the seeded corpus, which every plain
// `go test` runs, reaches the paths the model checks — resets, fast
// retransmissions, duplicates at the receiver.
func TestFuzzLinkCorpusCoverage(t *testing.T) {
	var resets, fast, dups int64
	for seed := int64(1); seed <= 8; seed++ {
		l := newLinkModel(t)
		l.run(randomSteps(seed))
		resets, fast, dups = resets+l.s.Resets, fast+l.s.FastRetransmits, dups+l.r.Duplicates
	}
	if resets == 0 || fast == 0 || dups == 0 {
		t.Errorf("corpus: %d resets, %d fast retransmissions, %d duplicates; want each > 0", resets, fast, dups)
	}
}
