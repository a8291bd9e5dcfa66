package netsim_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wtp"
)

// result is the i-th result the aliasing test queues: its payload spells
// i out, so a message read from a reused array shows as the wrong one.
func result(i int) msg.ResultDeliver {
	return msg.ResultDeliver{Req: ids.RequestID{Origin: 7, Seq: uint32(i)}, Payload: []byte(fmt.Sprintf("result %02d", i))}
}

// TestWtpFramesOwnTheirMessages drives a queued windowed link whose
// retransmission timeout is shorter than a round trip, so frame 1 is
// retransmitted while its first copy is still in the air, acked, and its
// ring slot and message array taken by frame 9 — while a retransmission
// of frame 1 is still queued on the link. The first transmission of frame 2 is lost,
// so frames behind it wait at the receiver while their radio records are
// recycled. Every frame a trace.Recorder kept must still carry exactly the
// message queued into it, and the host must be handed every result once,
// in order, with the payload it was queued with.
func TestWtpFramesOwnTheirMessages(t *testing.T) {
	k := sim.NewKernel(1)
	var rec trace.Recorder
	var frame2 int
	w := netsim.NewWireless(k, netsim.WirelessConfig{
		Latency:    netsim.Constant(10 * time.Millisecond),
		QueueLimit: 16,
		Reachable:  func(ids.MSS, ids.MH) bool { return true },
		WTP:        wtp.Config{Enabled: true, CoalesceDelay: -1, InitialCwnd: 8, InitialRTO: 5 * time.Millisecond},
		DropFilter: func(_, _ ids.NodeID, m msg.Message) bool {
			if d, ok := m.(*msg.WtpData); ok && d.Seq == 2 {
				frame2++
				return frame2 == 1
			}
			return false
		},
	}, rec.Observe)
	var got []msg.Message
	w.RegisterMSS(1, netsim.HandlerFunc(func(ids.NodeID, msg.Message) {}))
	w.RegisterMH(7, netsim.HandlerFunc(func(_ ids.NodeID, m msg.Message) { got = append(got, msg.Keep(m)) }))
	const n = 16
	queuedAt := make([]sim.Time, n+1)
	for i := 1; i <= n; i++ {
		at := time.Duration(i-1) * time.Millisecond
		if i > 8 {
			at += 13 * time.Millisecond
		}
		k.Defer(at, func() {
			queuedAt[i] = k.Now()
			l := result(i).Leg()
			w.SendDownlink(1, 7, msg.ViewOf(&l)) // a borrowed view, as a station sends
		})
	}
	k.Run()
	if len(got) != n {
		t.Fatalf("the host was handed %d results, want %d", len(got), n)
	}
	for i, m := range got {
		if want := result(i + 1); !reflect.DeepEqual(m, want) {
			t.Errorf("result %d handed up as %#v, queued as %#v", i+1, m, want)
		}
	}
	// Frame s carries result s (one message a frame, one epoch).
	var retired, stale, parked bool
	firstSeen := map[uint64]sim.Time{}
	for _, e := range rec.Entries() {
		switch m := e.Msg.(type) {
		case msg.WtpAck:
			retired = retired || m.Cum >= 1 && e.At <= queuedAt[9]
		case msg.WtpData:
			if len(m.Inner) != 1 {
				t.Fatalf("at %v the recorder kept frame %d with %d messages", e.At, m.Seq, len(m.Inner))
			}
			if in, want := msg.Keep(m.Inner[0].Message()), result(int(m.Seq)); !reflect.DeepEqual(in, want) {
				t.Errorf("at %v the recorder kept frame %d carrying %#v, want %#v", e.At, m.Seq, in, want)
			}
			stale = stale || m.Seq == 1 && e.At > queuedAt[9]
			if _, ok := firstSeen[m.Seq]; !ok && e.Kind == netsim.EventDelivered {
				firstSeen[m.Seq] = e.At
			}
		case msg.ResultDeliver:
			if want := result(int(m.Req.Seq)); e.Kind == netsim.EventDelivered && !reflect.DeepEqual(m, want) {
				t.Errorf("at %v the recorder kept %#v delivered, want %#v", e.At, m, want)
			}
			if at, ok := firstSeen[uint64(m.Req.Seq)]; ok && at < e.At {
				parked = true
			}
		}
	}
	if !retired || !stale || !parked {
		t.Errorf("frame 1 retired before frame 9 took its slot: %t; a copy of frame 1 arrived after: %t; a frame waited for a hole: %t",
			retired, stale, parked)
	}
}
