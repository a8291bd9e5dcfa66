package msg

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/ids"
)

// TestViewShowsItsLeg: for every sample of the twelve leg kinds, a view
// of the leg is the leg's box to whoever reads it — the same kind and
// rendering, the same leg back from LegOf (and in place from Leg), the
// same size and bytes from the codec — and Keep of the view is that box.
func TestViewShowsItsLeg(t *testing.T) {
	seen := map[Kind]bool{}
	for _, m := range legSamples() {
		l, _ := LegOf(m)
		box := l.Message()
		v := ViewOf(&l)
		seen[v.Kind()] = true
		if v.Kind() != box.Kind() {
			t.Errorf("%v: a view is of kind %v", box, v.Kind())
		}
		if got := Keep(v); !reflect.DeepEqual(got, box) {
			t.Errorf("Keep(view) = %#v, want the box %#v", got, box)
		}
		if v.String() != box.String() {
			t.Errorf("a view renders %q, its box %q", v.String(), box.String())
		}
		if back, ok := LegOf(v); !ok || !reflect.DeepEqual(back, l) {
			t.Errorf("LegOf(view of %v) = %+v, %t", box, back, ok)
		}
		if v.Leg() != &l {
			t.Errorf("%v: a view's Leg is not the leg it shows", box)
		}
		if WireSize(v) != WireSize(box) {
			t.Errorf("%v: a view sizes %d bytes, its box %d", box, WireSize(v), WireSize(box))
		}
		got, err := AppendEncode(nil, v)
		want, _ := Encode(box)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%v: a view encodes to %x (%v), its box to %x", box, got, err, want)
		}
	}
	if len(seen) != len(legKinds) {
		t.Errorf("views of %d kinds, want %d", len(seen), len(legKinds))
	}
}

// TestKeepOwnsShownFrames: a link-layer frame shown by a pointer into a
// substrate's record reads as its value, and Keep copies it out — a
// LinkFrame's viewed Inner boxed, a WtpData's envelopes and a WtpAck's
// Sacks copied — so the kept message does not change when the record and
// the arrays it owns are reused.
func TestKeepOwnsShownFrames(t *testing.T) {
	l := Dereg{MH: 3, NewMSS: 6}.Leg()
	rec := struct {
		frame LinkFrame
		ack   LinkAck
		data  WtpData
		wack  WtpAck
	}{
		frame: LinkFrame{Seq: 300, Inner: ViewOf(&l)},
		ack:   LinkAck{Seq: 300},
		data:  WtpData{Epoch: 1, Seq: 9, Inner: envelopes(ResultDeliver{Payload: []byte("r")})},
		wack:  WtpAck{Epoch: 1, Cum: 8, Sacks: []uint64{10}},
	}
	want := []Message{
		LinkFrame{Seq: 300, Inner: Dereg{MH: 3, NewMSS: 6}},
		LinkAck{Seq: 300},
		WtpData{Epoch: 1, Seq: 9, Inner: envelopes(ResultDeliver{Payload: []byte("r")})},
		WtpAck{Epoch: 1, Cum: 8, Sacks: []uint64{10}},
	}
	shown := []Message{&rec.frame, &rec.ack, &rec.data, &rec.wack}
	var kept []Message
	for i, m := range shown {
		k := Keep(m)
		kept = append(kept, k)
		if !reflect.DeepEqual(k, want[i]) {
			t.Errorf("Keep(%T) = %#v, want %#v", m, k, want[i])
		}
		if m.Kind() != k.Kind() || m.String() != k.String() {
			t.Errorf("shown %v (%v), kept %v (%v)", m, m.Kind(), k, k.Kind())
		}
		got, err := AppendEncode(nil, m)
		enc, _ := Encode(k)
		if err != nil || !bytes.Equal(got, enc) || WireSize(m) != len(enc) {
			t.Errorf("%v: shown encodes to %x (%v, %d bytes sized), kept to %x", k, got, err, WireSize(m), enc)
		}
	}
	// The substrate reuses its record, the leg it showed and its arrays.
	l = Greet{MH: 4}.Leg()
	rec.data.Inner[0] = EnvelopeOf(Greet{MH: 4})
	rec.wack.Sacks[0] = 11
	rec.frame, rec.ack, rec.data, rec.wack = LinkFrame{}, LinkAck{}, WtpData{}, WtpAck{}
	if !reflect.DeepEqual(kept, want) {
		t.Errorf("kept messages changed with the record: %v, want %v", kept, want)
	}
}

// TestKeepLeavesOtherMessages: a message that is not shown by reference
// is already the listener's to keep, so Keep hands it back as it is.
func TestKeepLeavesOtherMessages(t *testing.T) {
	for _, m := range sampleMessages() {
		if got := Keep(m); !reflect.DeepEqual(got, m) || reflect.TypeOf(got) != reflect.TypeOf(m) {
			t.Errorf("Keep(%#v) = %#v", m, got)
		}
	}
	if Keep(nil) != nil {
		t.Error("Keep(nil) is not nil")
	}
}

// foreign is a Message the codec does not know.
type foreign struct{}

func (foreign) Kind() Kind     { return KindJoin }
func (foreign) String() string { return "foreign" }

// TestCodecRefusesUnknownTypes: a type the codec does not know is an
// error to Encode and AppendEncode and a panic to WireSize — never a
// size of 0 that reads as a valid one — and so is a view of a leg of no
// leg kind.
func TestCodecRefusesUnknownTypes(t *testing.T) {
	bad := Leg{Kind: KindDelPrefOnly}
	for _, m := range []Message{foreign{}, ViewOf(&bad), nil} {
		if _, err := Encode(m); !errors.Is(err, ErrBadKind) {
			t.Errorf("Encode(%#v) = %v, want ErrBadKind", m, err)
		}
		if _, err := AppendEncode(nil, m); !errors.Is(err, ErrBadKind) {
			t.Errorf("AppendEncode(%#v) = %v, want ErrBadKind", m, err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WireSize(%#v) did not panic", m)
				}
			}()
			WireSize(m)
		}()
	}
}

// TestViewAllocBudget: showing a leg costs nothing — a view is stored in
// an interface as is — and neither does reading it: its kind, LegOf,
// WireSize, or AppendEncode into a warm buffer.
func TestViewAllocBudget(t *testing.T) {
	l := ResultForward{Proxy: ids.ProxyID{Host: 2, Seq: 5}, MH: 3, Payload: []byte("r")}.Leg()
	buf := make([]byte, 0, 128)
	var sink Message
	var kind Kind
	if avg := testing.AllocsPerRun(200, func() {
		sink = ViewOf(&l)
		kind = sink.Kind()
		LegOf(sink)
		WireSize(sink)
		buf, _ = AppendEncode(buf[:0], sink)
	}); avg != 0 {
		t.Errorf("a view shown and read: %.1f allocs, budget 0", avg)
	}
	if kind != KindResultForward || len(buf) != WireSize(l.Message()) {
		t.Errorf("view read as %v, %d bytes", kind, len(buf))
	}
}
