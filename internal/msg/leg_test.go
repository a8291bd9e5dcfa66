package msg

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/ids"
)

// legKinds are the request path's eight kinds and the hand-off's four,
// the only ones a Leg carries.
var legKinds = map[Kind]bool{
	KindRequest: true, KindRequestForward: true, KindServerRequest: true, KindServerResult: true, KindResultForward: true,
	KindResultDeliver: true, KindAckMH: true, KindAckForward: true,
	KindGreet: true, KindDereg: true, KindDeregAck: true, KindUpdateCurrentLoc: true,
}

// legSamples returns each of the twelve kinds zero, with every field set
// (every flag true), and with a nil and an empty payload where it has one.
func legSamples() []Message {
	req := ids.RequestID{Origin: 3, Seq: 41}
	prx := ids.ProxyID{Host: 2, Seq: 5}
	out := []Message{
		Request{}, RequestForward{}, ServerRequest{}, ServerResult{}, ResultForward{}, ResultDeliver{}, AckMH{}, AckForward{},
		AckMH{MH: 3, Req: req, HaveOutstanding: true},
		AckForward{Proxy: prx, MH: 3, Req: req, DelProxy: true},
		Greet{}, Dereg{}, DeregAck{}, UpdateCurrentLoc{},
		Greet{MH: 3, OldMSS: 6, Inc: 4, Seq: 9},
		Dereg{MH: 3, NewMSS: 6, Inc: 4, Seq: 9},
		DeregAck{MH: 3, Inc: 4, Stale: true, Holder: 6, Seq: 9},
		DeregAck{MH: 3, Pref: Pref{Proxy: prx, RKpR: 41}, Routed: 42, Inc: 4},
		DeregAck{MH: 3, Pref: Pref{Proxy: prx}},
		UpdateCurrentLoc{Proxy: prx, MH: 3, NewLoc: 6},
	}
	for _, p := range [][]byte{[]byte("payload"), nil, {}} {
		out = append(out,
			Request{Req: req, Server: 7, Payload: p, Inc: 4},
			RequestForward{Proxy: prx, Req: req, Server: 7, Payload: p, Inc: 4},
			ServerRequest{Proxy: prx, Req: req, Payload: p},
			ServerResult{Proxy: prx, Req: req, Payload: p},
			ResultForward{Proxy: prx, MH: 3, Req: req, Payload: p, DelPref: true, Mark: 42, Inc: 4},
			ResultDeliver{Req: req, Payload: p, DelPref: true, Inc: 4},
		)
	}
	return out
}

// TestLegRoundTrip: every request-path and hand-off message carried as a
// leg comes back deep-equal — a nil payload nil, an empty one empty — and
// encodes to the same bytes, which the leg sizes unboxed.
func TestLegRoundTrip(t *testing.T) {
	seen := map[Kind]bool{}
	for _, m := range legSamples() {
		l, ok := LegOf(m)
		if !ok || l.Kind != m.Kind() {
			t.Fatalf("LegOf(%#v) = %+v, %t", m, l, ok)
		}
		seen[m.Kind()] = true
		back := l.Message()
		if !reflect.DeepEqual(back, m) {
			t.Errorf("LegOf(%#v).Message() = %#v", m, back)
		}
		want, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Encode(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%v: a leg encodes to %x, the message to %x", m, got, want)
		}
	}
	if len(seen) != len(legKinds) {
		t.Errorf("samples cover %d kinds, want %d", len(seen), len(legKinds))
	}
}

// TestLegOfRefusesOtherKinds: no other kind becomes a leg — Join, Leave,
// DelPrefOnly, RegConfirm and the migration kinds among them — and a leg
// of no leg kind will not box.
func TestLegOfRefusesOtherKinds(t *testing.T) {
	refused := map[Kind]bool{}
	for _, m := range sampleMessages() {
		if legKinds[m.Kind()] {
			continue
		}
		if l, ok := LegOf(m); ok || !reflect.DeepEqual(l, Leg{}) {
			t.Errorf("LegOf(%v) = %+v, %t; want the zero Leg, false", m, l, ok)
		}
		refused[m.Kind()] = true
	}
	for _, k := range []Kind{KindJoin, KindLeave, KindDelPrefOnly, KindRegConfirm, KindMigState} {
		if !refused[k] {
			t.Errorf("no %v sample was offered to LegOf", k)
		}
	}
	if _, ok := LegOf(nil); ok {
		t.Error("LegOf(nil) reported a leg")
	}
	for _, k := range []Kind{KindInvalid, KindLeave, KindDelPrefOnly} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Leg{Kind: %v}.Message() did not panic", k)
				}
			}()
			Leg{Kind: k}.Message()
		}()
	}
}

// TestLegSize: a leg rides in every radio and wired frame record and in
// psim's parked cross frames, so the hand-off's station field must not
// grow it past 64 bytes.
func TestLegSize(t *testing.T) {
	if size := unsafe.Sizeof(Leg{}); size > 64 {
		t.Errorf("msg.Leg is %d bytes, budget 64", size)
	}
}
