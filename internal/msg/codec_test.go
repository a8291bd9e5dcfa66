package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

// sampleMessages returns one populated instance of every message kind.
func sampleMessages() []Message {
	req := ids.RequestID{Origin: 3, Seq: 41}
	prx := ids.ProxyID{Host: 2, Seq: 5}
	return []Message{
		Join{MH: 3},
		Leave{MH: 3},
		Greet{MH: 3, OldMSS: 2, Inc: 2, Seq: 6},
		Request{Req: req, Server: 1, Payload: []byte("query traffic zone 4"), Inc: 1},
		ResultDeliver{Req: req, Payload: []byte("result"), DelPref: true, Inc: 1},
		AckMH{MH: 3, Req: req},
		Dereg{MH: 3, NewMSS: 4, Inc: 2, Seq: 6},
		DeregAck{MH: 3, Pref: Pref{Proxy: prx, RKpR: 41}, Routed: 42},
		RequestForward{Proxy: prx, Req: req, Server: 1, Payload: []byte("p")},
		UpdateCurrentLoc{Proxy: prx, MH: 3, NewLoc: 4},
		ResultForward{Proxy: prx, MH: 3, Req: req, Payload: []byte("r"), DelPref: true, Mark: 42},
		AckForward{Proxy: prx, MH: 3, Req: req, DelProxy: true},
		DelPrefOnly{Proxy: prx, MH: 3, Req: req, Mark: 42, Inc: 1},
		ServerRequest{Proxy: prx, Req: req, Payload: []byte("sq")},
		ServerResult{Proxy: prx, Req: req, Payload: []byte("sr")},
		ServerAck{Req: req},
		MIPRegister{MH: 3, CareOf: 2},
		MIPData{MH: 3, Req: req, Payload: []byte("d")},
		MIPTunnel{MH: 3, Req: req, Payload: []byte("t")},
		ImageTransfer{
			MH:      3,
			Pending: []ids.RequestID{req, {Origin: 3, Seq: 42}},
			Results: [][]byte{[]byte("a"), []byte("bb")},
		},
		TISQuery{QID: 9, Origin: 2, Op: TISOpSubscribe, Region: 14, Value: 30, Hops: 2, Proxy: prx, Req: req},
		TISQuery{QID: 10, Origin: 2, Op: TISOpMulticast, Region: 3, Hops: 1, Proxy: prx, Req: req, Data: []byte("to the fleet")},
		TISReply{QID: 9, Region: 14, Value: 72, Stamp: 123456789, Hops: 3},
		TISDeliver{Member: 3, Group: 7, Seq: 42, Data: []byte("msg")},
		LinkFrame{Seq: 17, Inner: Dereg{MH: 3, NewMSS: 4}},
		LinkAck{Seq: 17},
		RegConfirm{MH: 3},
		Busy{Req: req},
		Admit{Req: req},
		MigOffer{Proxy: prx, MH: 3, Pending: 2, HostLoad: 4, LoadCheck: true},
		MigCommit{Proxy: prx, NewProxy: ids.ProxyID{Host: 4, Seq: 9}, MH: 3, Accept: true},
		MigState{
			Proxy:      prx,
			NewProxy:   ids.ProxyID{Host: 4, Seq: 9},
			MH:         3,
			CurrentLoc: 4,
			Reqs: []ProxyReq{
				{Req: req, Server: 1, Payload: []byte("q"), Result: []byte("r"), HasResult: true, Forwarded: true, Inc: 1},
				{Req: ids.RequestID{Origin: 3, Seq: 42}, Server: 2, Payload: []byte("q2"), Batch: ids.BatchID{Origin: 3, Seq: 1}, Inc: 2},
			},
			// One live batch and one abort memo above their host's floor.
			Batches: []ProxyBatch{
				{Batch: ids.BatchID{Origin: 3, Seq: 1}, Expected: 2, Committed: true, Inc: 2},
				{Batch: ids.BatchID{Origin: 3, Seq: 2}, Aborted: true, Inc: 2},
			},
			Floors:   []BatchFloor{{MH: 3, Seq: 1, Inc: 2}},
			Mark:     44,
			MarkInc:  2,
			LeaseInc: 2,
		},
		PrefRedirect{MH: 3, OldProxy: prx, NewProxy: ids.ProxyID{Host: 4, Seq: 9}, Req: req, Confirm: true},
		MigGC{OldProxy: prx, NewProxy: ids.ProxyID{Host: 4, Seq: 9}, MH: 3},
		BatchOpen{Proxy: prx, MH: 3, Batch: ids.BatchID{Origin: 3, Seq: 1}, Inc: 2, Floor: 1},
		BatchItem{Proxy: prx, MH: 3, Batch: ids.BatchID{Origin: 3, Seq: 1}, Req: req, Server: 1, Payload: []byte("bq")},
		BatchCommit{Proxy: prx, MH: 3, Batch: ids.BatchID{Origin: 3, Seq: 1}, Count: 2, Inc: 2},
		BatchAbort{Proxy: prx, MH: 3, Batch: ids.BatchID{Origin: 3, Seq: 1}, Inc: 2},
		Register{MH: 3, Inc: 2},
		LeaseHeartbeat{Proxy: prx, MH: 3, Inc: 2},
		ReclaimMemo{Proxy: prx, MH: 3},
		WtpData{Epoch: 1, Seq: 9, Inner: envelopes(
			ResultDeliver{Req: req, Payload: []byte("r1"), Inc: 1},
			AckMH{MH: 3, Req: req},
		)},
		WtpAck{Epoch: 1, Cum: 8, Sacks: []uint64{10, 12}},
		GroupUpdateLoc{Proxy: prx, NewLoc: 4, Members: []byte{3, 1, 1, 1}},
		GroupAckForward{Proxy: prx, Members: []byte{2, 3, 1}, Seqs: []uint32{7, 9}},
		DeregAck{MH: 3, Inc: 2, Stale: true, Holder: 4, Seq: 6},
	}
}

// envelopes keeps ms as a windowed frame carries them.
func envelopes(ms ...Message) []Envelope {
	out := make([]Envelope, len(ms))
	for i, m := range ms {
		out[i] = EnvelopeOf(m)
	}
	return out
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		t.Run(m.Kind().String(), func(t *testing.T) {
			b, err := Encode(m)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			got, err := Decode(b)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !reflect.DeepEqual(got, m) {
				t.Errorf("round trip changed message:\n got %#v\nwant %#v", got, m)
			}
		})
	}
}

// TestEveryKindCovered: every kind has a sample, and its zero value in
// the kind table is of that kind and round-trips, so a kind added
// without a code method fails here even when sampleMessages misses it.
// The one exception is a zero LinkFrame, which Encode refuses for its
// nil inner message.
func TestEveryKindCovered(t *testing.T) {
	seen := make(map[Kind]bool)
	for _, m := range sampleMessages() {
		seen[m.Kind()] = true
	}
	for k := KindInvalid + 1; k < kindSentinel; k++ {
		if !seen[k] {
			t.Errorf("sampleMessages misses kind %v; codec round-trip untested", k)
		}
		zero := kinds[k].zero
		if zero == nil || zero.Kind() != k {
			t.Errorf("kind table: %v has zero value %#v", k, zero)
			continue
		}
		b, err := Encode(zero)
		if k == KindLinkFrame {
			if !errors.Is(err, ErrBadKind) {
				t.Errorf("Encode(zero link frame) = %v, want ErrBadKind", err)
			}
			continue
		}
		if err != nil {
			t.Errorf("Encode(zero %v): %v", k, err)
			continue
		}
		if got, err := Decode(b); err != nil || !reflect.DeepEqual(got, zero) {
			t.Errorf("zero %v round trip: got %#v, %v", k, got, err)
		}
	}
}

// TestProxyFieldIsAddressOrListed: a kind with a Proxy field either
// names the proxy it is for — then it is ProxyAddressed, and WithProxy
// changes that field and nothing else — or it is listed here as naming
// the proxy it comes from or speaks about, being addressed to a respMss
// or a server. A new kind with a Proxy field has to take a side.
func TestProxyFieldIsAddressOrListed(t *testing.T) {
	notTheAddressee := map[Kind]bool{
		KindResultForward: true, KindDelPrefOnly: true, KindBatchAbort: true, KindReclaimMemo: true, // to the respMss
		KindServerRequest: true, KindTISQuery: true, // to a server: the return address
		KindMigOffer: true, KindMigCommit: true, KindMigState: true, // migration control between two stations
	}
	other := ids.ProxyID{Host: 9, Seq: 99}
	for _, m := range sampleMessages() {
		f, hasField := reflect.TypeOf(m).FieldByName("Proxy")
		a, addressed := m.(ProxyAddressed)
		switch {
		case !hasField || f.Type != reflect.TypeOf(other):
			if addressed || notTheAddressee[m.Kind()] {
				t.Errorf("%v has no Proxy field but is ProxyAddressed or listed", m.Kind())
			}
		case addressed == notTheAddressee[m.Kind()]:
			t.Errorf("%v has a Proxy field: ProxyAddressed %v, listed %v — want exactly one", m.Kind(), addressed, addressed)
		case addressed:
			moved := a.WithProxy(other)
			back, ok := moved.(ProxyAddressed)
			if !ok || back.ProxyID() != other || a.ProxyID() == other {
				t.Errorf("%v: WithProxy gave %v", m.Kind(), moved)
			} else if !reflect.DeepEqual(back.WithProxy(a.ProxyID()), m) {
				t.Errorf("%v: WithProxy changed more than the Proxy field: %v", m.Kind(), moved)
			}
		}
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	b, err := Encode(Join{MH: 1})
	if err != nil {
		t.Fatal(err)
	}
	b[0] = codecVersion + 1
	if _, err := Decode(b); !errors.Is(err, ErrBadVersion) {
		t.Errorf("Decode = %v, want ErrBadVersion", err)
	}
}

func TestDecodeRejectsBadKind(t *testing.T) {
	b := []byte{codecVersion, byte(kindSentinel), 0, 0, 0, 1}
	if _, err := Decode(b); !errors.Is(err, ErrBadKind) {
		t.Errorf("Decode = %v, want ErrBadKind", err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	for _, m := range sampleMessages() {
		b, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		// Every strict prefix must fail cleanly, never panic.
		for i := 0; i < len(b); i++ {
			if _, err := Decode(b[:i]); err == nil {
				t.Errorf("%v: Decode of %d/%d-byte prefix succeeded", m.Kind(), i, len(b))
			}
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	b, err := Encode(AckMH{MH: 1, Req: ids.RequestID{Origin: 1, Seq: 1}})
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, 0xFF)
	if _, err := Decode(b); !errors.Is(err, ErrTrailing) {
		t.Errorf("Decode = %v, want ErrTrailing", err)
	}
}

func TestDecodeRejectsHugeLengthPrefix(t *testing.T) {
	// A Request whose payload length prefix claims more bytes than the
	// buffer holds must fail with ErrTruncated, not allocate.
	req, server, length := ids.RequestID{Origin: 1, Seq: 1}, ids.Server(1), uint32(0xFFFFFFFF) // absurd payload length
	c := header(KindRequest)
	c.req(&req)
	u32(c, &server)
	u32(c, &length)
	if _, err := Decode(c.buf); !errors.Is(err, ErrTruncated) {
		t.Errorf("Decode = %v, want ErrTruncated", err)
	}
}

// TestDecodeAllocBudgetHostileLength: a list's count prefix may claim no
// more elements than the bytes left can hold. Each frame is 1 MiB: the
// kind's fixed fields, a list count, then zeros. A count equal to the
// bytes after it must fail without preallocating that many elements; a
// count of as many elements as those bytes hold at the element's minimum
// encoded size may allocate them, within the kind's budget.
func TestDecodeAllocBudgetHostileLength(t *testing.T) {
	const frameLen = 1 << 20
	for _, tc := range []struct {
		kind   Kind
		fixed  int // bytes of fields before the hostile count, all zero
		min    int // fewest bytes one element encodes to
		budget uint64
	}{
		{KindMigState, 24, 34, 4 << 20},    // proxy, new proxy, mh, current loc; then the requests
		{KindImageTransfer, 8, 4, 8 << 20}, // mh, an empty pending list; then the results
		{KindWtpAck, 16, 8, 2 << 20},       // epoch, cum; then the sacks
		{KindBatchAbort, 20, 8, 2 << 20},   // proxy, mh, batch; then the requests
	} {
		at := 2 + tc.fixed
		left := frameLen - at - 4
		for _, count := range []int{left, left / tc.min} {
			frame := make([]byte, frameLen)
			frame[0], frame[1] = codecVersion, byte(tc.kind)
			binary.BigEndian.PutUint32(frame[at:], uint32(count))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Decode(frame)
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc
			if got > tc.budget {
				t.Errorf("%v, count %d: Decode (err %v) allocated %d bytes, budget %d", tc.kind, count, err, got, tc.budget)
			}
			if count == left && err == nil {
				t.Errorf("%v: Decode accepted a count of %d elements in %d bytes", tc.kind, count, left)
			}
			t.Logf("%v, count %d: Decode (err %v) allocated %d bytes", tc.kind, count, err, got)
		}
	}
}

// header starts a hand-built frame of kind k: a coder appending the
// version and kind bytes, for a test to add the fields by hand.
func header(k Kind) *coder {
	c := &coder{mode: appending}
	version := uint8(codecVersion)
	u8(c, &version)
	u8(c, &k)
	return c
}

func TestDecodeCorruptionNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	msgs := sampleMessages()
	for trial := 0; trial < 2000; trial++ {
		m := msgs[rng.Intn(len(msgs))]
		b, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		// Flip up to three random bytes; Decode must return either a
		// valid message or an error, never panic.
		for i := 0; i < 1+rng.Intn(3); i++ {
			b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
		}
		_, _ = Decode(b)
	}
}

func TestRequestRoundTripProperty(t *testing.T) {
	f := func(origin, seq, server uint32, payload []byte) bool {
		m := Request{
			Req:     ids.RequestID{Origin: ids.MH(origin), Seq: seq},
			Server:  ids.Server(server),
			Payload: payload,
		}
		b, err := Encode(m)
		if err != nil {
			return false
		}
		got, err := Decode(b)
		if err != nil {
			return false
		}
		gr, ok := got.(Request)
		if !ok {
			return false
		}
		// nil and empty payloads are both decoded as nil.
		if len(payload) == 0 {
			return gr.Payload == nil && gr.Req == m.Req && gr.Server == m.Server
		}
		return reflect.DeepEqual(gr, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestImageTransferRoundTripProperty(t *testing.T) {
	f := func(mh uint32, seqs []uint32, results [][]byte) bool {
		m := ImageTransfer{MH: ids.MH(mh)}
		for _, s := range seqs {
			m.Pending = append(m.Pending, ids.RequestID{Origin: ids.MH(mh), Seq: s})
		}
		for _, r := range results {
			if len(r) == 0 {
				r = nil // codec normalizes empty to nil
			}
			m.Results = append(m.Results, r)
		}
		b, err := Encode(m)
		if err != nil {
			return false
		}
		got, err := Decode(b)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWireSize(t *testing.T) {
	// DeregAck (RDP hand-off state) must be constant-size, independent of
	// the number of pending requests — the core of experiment E6.
	small := DeregAck{MH: 1, Pref: Pref{Proxy: ids.ProxyID{Host: 1, Seq: 1}}}
	if got := WireSize(small); got == 0 {
		t.Fatal("WireSize returned 0 for a valid message")
	}
	img := ImageTransfer{MH: 1}
	for i := 0; i < 50; i++ {
		img.Pending = append(img.Pending, ids.RequestID{Origin: 1, Seq: uint32(i)})
		img.Results = append(img.Results, make([]byte, 100))
	}
	if WireSize(img) <= WireSize(small)*10 {
		t.Error("image transfer should dwarf the RDP pref hand-off")
	}
}

func TestKindString(t *testing.T) {
	if got := KindUpdateCurrentLoc.String(); got != "update-currl" {
		t.Errorf("Kind.String() = %q, want %q", got, "update-currl")
	}
	if got := Kind(200).String(); got != "kind(200)" {
		t.Errorf("Kind.String() = %q, want %q", got, "kind(200)")
	}
}

func TestKindValid(t *testing.T) {
	if KindInvalid.Valid() {
		t.Error("KindInvalid must not be valid")
	}
	if kindSentinel.Valid() {
		t.Error("sentinel must not be valid")
	}
	if !KindGreet.Valid() {
		t.Error("KindGreet must be valid")
	}
}

func TestPrefString(t *testing.T) {
	if got := (Pref{}).String(); got != "pref(nil)" {
		t.Errorf("empty pref String() = %q", got)
	}
	p := Pref{Proxy: ids.ProxyID{Host: 2, Seq: 1}, RKpR: 3}
	if got := p.String(); got != "pref(proxy(mss2#1),RKpR=true)" {
		t.Errorf("pref String() = %q", got)
	}
}

func BenchmarkEncodeResultForward(b *testing.B) {
	m := ResultForward{
		Proxy:   ids.ProxyID{Host: 2, Seq: 5},
		MH:      3,
		Req:     ids.RequestID{Origin: 3, Seq: 41},
		Payload: make([]byte, 256),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeResultForward(b *testing.B) {
	m := ResultForward{
		Proxy:   ids.ProxyID{Host: 2, Seq: 5},
		MH:      3,
		Req:     ids.RequestID{Origin: 3, Seq: 41},
		Payload: make([]byte, 256),
	}
	buf, err := Encode(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzDecode feeds arbitrary bytes to the decoder: it must never panic
// and, when it succeeds, re-encoding must round-trip, and WireSize,
// which walks the fields without encoding them, must equal the encoded
// length.
func FuzzDecode(f *testing.F) {
	for _, m := range sampleMessages() {
		b, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{codecVersion})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			return
		}
		b2, err := Encode(m)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		if n := WireSize(m); n != len(b2) {
			t.Fatalf("WireSize = %d, encoding is %d bytes: %#v", n, len(b2), m)
		}
		m2, err := Decode(b2)
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip diverged:\n%#v\n%#v", m, m2)
		}
	})
}

// TestStringRendering exercises every message's trace rendering: each
// must be non-empty, parenthesized, and distinct per kind (traces rely
// on the prefix to name the message type).
func TestStringRendering(t *testing.T) {
	seen := make(map[string]Kind)
	for _, m := range sampleMessages() {
		s := fmt.Sprint(m)
		if s == "" {
			t.Errorf("%v renders empty", m.Kind())
			continue
		}
		if !strings.Contains(s, "(") || !strings.HasSuffix(s, ")") {
			t.Errorf("%v renders %q; want name(...) form", m.Kind(), s)
		}
		prefix := s[:strings.Index(s, "(")]
		if prev, dup := seen[prefix]; dup && prev != m.Kind() {
			t.Errorf("prefix %q used by both %v and %v", prefix, prev, m.Kind())
		}
		seen[prefix] = m.Kind()
	}
}

// TestWireSizeEveryKind checks WireSize is consistent with Encode for
// every message kind (it is defined as the encoded length).
func TestWireSizeEveryKind(t *testing.T) {
	for _, m := range sampleMessages() {
		b, err := Encode(m)
		if err != nil {
			t.Fatalf("encode %v: %v", m.Kind(), err)
		}
		if got := WireSize(m); got != len(b) {
			t.Errorf("WireSize(%v) = %d, want %d", m.Kind(), got, len(b))
		}
	}
}

// TestTISOpString names every operation and the unknown fallback.
func TestTISOpString(t *testing.T) {
	want := map[TISOp]string{
		TISOpQuery:     "query",
		TISOpUpdate:    "update",
		TISOpSubscribe: "subscribe",
		TISOpMailbox:   "mailbox",
		TISOpMulticast: "multicast",
		TISOp(99):      "tisop(99)",
	}
	for op, s := range want {
		if got := op.String(); got != s {
			t.Errorf("TISOp(%d).String() = %q, want %q", uint8(op), got, s)
		}
	}
}
