package trace

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func record(r *Recorder, kind netsim.EventKind, from, to ids.NodeID, m msg.Message) {
	r.Observe(0, netsim.LayerWired, kind, from, to, m)
}

func TestDeliveriesAndDrops(t *testing.T) {
	r := New()
	record(r, netsim.EventSent, ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Join{MH: 1})
	record(r, netsim.EventDelivered, ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Join{MH: 1})
	record(r, netsim.EventDropped, ids.MSS(1).Node(), ids.MH(1).Node(), msg.ResultDeliver{})
	if got := len(r.Deliveries()); got != 1 {
		t.Errorf("Deliveries = %d, want 1", got)
	}
	if got := len(r.Drops()); got != 1 {
		t.Errorf("Drops = %d, want 1", got)
	}
	if got := len(r.Entries()); got != 3 {
		t.Errorf("Entries = %d, want 3", got)
	}
	r.Reset()
	if len(r.Entries()) != 0 {
		t.Error("Reset did not clear entries")
	}
}

func TestCountDelivered(t *testing.T) {
	r := New()
	record(r, netsim.EventDelivered, ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Join{MH: 1})
	record(r, netsim.EventDelivered, ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Join{MH: 2})
	record(r, netsim.EventSent, ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Join{MH: 3})
	if got := r.CountDelivered(msg.KindJoin); got != 2 {
		t.Errorf("CountDelivered = %d, want 2", got)
	}
}

func TestExpectSequenceSubsequence(t *testing.T) {
	r := New()
	record(r, netsim.EventDelivered, ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Dereg{MH: 1, NewMSS: 2})
	record(r, netsim.EventDelivered, ids.MSS(3).Node(), ids.MSS(1).Node(), msg.Join{MH: 9}) // noise
	record(r, netsim.EventDelivered, ids.MSS(2).Node(), ids.MSS(1).Node(), msg.DeregAck{MH: 1})

	err := r.ExpectSequence([]Step{
		{Kind: msg.KindDereg, From: ids.MSS(1).Node()},
		{Kind: msg.KindDeregAck, To: ids.MSS(1).Node()},
	})
	if err != nil {
		t.Errorf("ExpectSequence failed: %v", err)
	}
}

func TestExpectSequenceOrderViolation(t *testing.T) {
	r := New()
	record(r, netsim.EventDelivered, ids.MSS(2).Node(), ids.MSS(1).Node(), msg.DeregAck{MH: 1})
	record(r, netsim.EventDelivered, ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Dereg{MH: 1, NewMSS: 2})
	err := r.ExpectSequence([]Step{
		{Kind: msg.KindDereg},
		{Kind: msg.KindDeregAck},
	})
	if err == nil {
		t.Error("ExpectSequence accepted out-of-order trace")
	}
	if !strings.Contains(err.Error(), "step 1") {
		t.Errorf("error should name the failing step: %v", err)
	}
}

func TestExpectSequenceCheckFunc(t *testing.T) {
	r := New()
	record(r, netsim.EventDelivered, ids.MSS(1).Node(), ids.MH(1).Node(), msg.ResultDeliver{DelPref: false})
	record(r, netsim.EventDelivered, ids.MSS(1).Node(), ids.MH(1).Node(), msg.ResultDeliver{DelPref: true})
	err := r.ExpectSequence([]Step{{
		Kind:  msg.KindResultDeliver,
		Check: func(m msg.Message) bool { return m.(msg.ResultDeliver).DelPref },
		Note:  "final result carries del-pref",
	}})
	if err != nil {
		t.Errorf("Check-constrained step not matched: %v", err)
	}
}

func TestExpectExactlyRejectsExtras(t *testing.T) {
	r := New()
	record(r, netsim.EventDelivered, ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Dereg{MH: 1})
	record(r, netsim.EventDelivered, ids.MSS(1).Node(), ids.MSS(3).Node(), msg.Dereg{MH: 1}) // extra
	err := r.ExpectExactly([]Step{{Kind: msg.KindDereg}})
	if err == nil {
		t.Error("ExpectExactly accepted an extra delivery")
	}
}

func TestExpectExactlyIgnoresUnmentionedKinds(t *testing.T) {
	r := New()
	record(r, netsim.EventDelivered, ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Join{MH: 5}) // unmentioned
	record(r, netsim.EventDelivered, ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Dereg{MH: 1})
	err := r.ExpectExactly([]Step{{Kind: msg.KindDereg}})
	if err != nil {
		t.Errorf("ExpectExactly should ignore unmentioned kinds: %v", err)
	}
}

func TestEntryString(t *testing.T) {
	e := Entry{
		At:    sim.Time(0),
		Layer: netsim.LayerWired,
		Kind:  netsim.EventDelivered,
		From:  ids.MSS(1).Node(),
		To:    ids.MSS(2).Node(),
		Msg:   msg.Join{MH: 1},
	}
	s := e.String()
	for _, want := range []string{"wired", "delivered", "mss1", "mss2", "join"} {
		if !strings.Contains(s, want) {
			t.Errorf("Entry.String() = %q missing %q", s, want)
		}
	}
}

// TestRecorderKeepsWhatItIsShown: a substrate shows a listener a leg as a
// view of its frame record and a lost ARQ frame by a pointer into the ARQ
// record, and reuses both once the report returns. The recorder keeps
// what it is shown, so its entries hold the messages as shown even after
// the leg and the frame are overwritten.
func TestRecorderKeepsWhatItIsShown(t *testing.T) {
	r := New()
	res := msg.ResultDeliver{Req: ids.RequestID{Origin: 1, Seq: 1}, Payload: []byte("r"), DelPref: true}
	l := res.Leg()
	lost := msg.LinkFrame{Seq: 7, Inner: msg.ViewOf(&l)}
	from, to := ids.MSS(1).Node(), ids.MH(1).Node()
	r.Observe(1, netsim.LayerWireless, netsim.EventDelivered, from, to, msg.ViewOf(&l))
	r.Observe(2, netsim.LayerWired, netsim.EventDroppedLoss, from, ids.MSS(2).Node(), &lost)
	text := r.String()

	l = msg.Greet{MH: 9, OldMSS: 2}.Leg()
	lost = msg.LinkFrame{Seq: 8, Inner: msg.ViewOf(&l)}

	e := r.Entries()
	if len(e) != 2 || !reflect.DeepEqual(e[0].Msg, res) || !reflect.DeepEqual(e[1].Msg, msg.LinkFrame{Seq: 7, Inner: res}) {
		t.Fatalf("entries after the shown records were reused: %v", e)
	}
	if r.CountDelivered(msg.KindResultDeliver) != 1 || r.CountDelivered(msg.KindGreet) != 0 {
		t.Errorf("counted %d result deliveries, %d greets; want 1, 0",
			r.CountDelivered(msg.KindResultDeliver), r.CountDelivered(msg.KindGreet))
	}
	if err := r.ExpectExactly([]Step{{Kind: msg.KindResultDeliver, Check: func(m msg.Message) bool {
		return m.(msg.ResultDeliver).DelPref
	}}}); err != nil {
		t.Error(err)
	}
	if got := r.String(); got != text {
		t.Errorf("the trace changed with the shown records:\n%s\nwas\n%s", got, text)
	}
}
