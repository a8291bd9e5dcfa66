package msg

import (
	"bytes"
	"testing"

	"repro/internal/ids"
)

func allocSample() ResultForward {
	return ResultForward{
		Proxy:   ids.ProxyID{Host: 2, Seq: 5},
		MH:      3,
		Req:     ids.RequestID{Origin: 3, Seq: 41},
		Payload: bytes.Repeat([]byte{0xAB}, 256),
		DelPref: true,
	}
}

// TestEncodeDecodeAllocBudget pins the codec's allocations: AppendEncode
// into a warm buffer must not allocate at all, Decode only for the
// message it returns. A regression here (a stray boxing, a lost buffer
// reuse) fails immediately rather than showing up as benchmark drift.
func TestEncodeDecodeAllocBudget(t *testing.T) {
	m := allocSample()
	// Transports hold messages boxed in the Message interface already;
	// box once here so the measurement covers the codec, not the
	// caller's interface conversion.
	var boxed Message = m
	enc, err := Encode(boxed)
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		b, err := AppendEncode(enc[:0], boxed)
		if err != nil {
			panic(err)
		}
		enc = b
	}); avg != 0 {
		t.Errorf("AppendEncode into warm buffer: %.1f allocs/op, budget 0", avg)
	}

	// Decode boxes the message and copies its payload out of the frame
	// buffer: two allocations, no more.
	var dst Message
	if avg := testing.AllocsPerRun(200, func() {
		if dst, err = Decode(enc); err != nil {
			panic(err)
		}
	}); avg > 2 {
		t.Errorf("Decode: %.1f allocs/op, budget 2", avg)
	}
	if got, ok := dst.(ResultForward); !ok || got.Req != m.Req || !bytes.Equal(got.Payload, m.Payload) || !got.DelPref {
		t.Errorf("Decode round trip corrupted message: %+v", dst)
	}

	// WireSize walks the fields without a buffer: it must not allocate
	// either.
	if avg := testing.AllocsPerRun(200, func() { WireSize(boxed) }); avg != 0 {
		t.Errorf("WireSize: %.1f allocs/op, budget 0", avg)
	}
	// A deregack sizes as a view without a box: a station sizes every
	// deregack it sends as hand-off state.
	da := DeregAck{MH: 3, Pref: Pref{Proxy: ids.ProxyID{Host: 2, Seq: 5}, RKpR: 7}, Routed: 8, Inc: 2}.Leg()
	if avg := testing.AllocsPerRun(200, func() { WireSize(ViewOf(&da)) }); avg != 0 {
		t.Errorf("WireSize of a deregack's view: %.1f allocs/op, budget 0", avg)
	}
}

// BenchmarkAppendEncodeResultForward measures the warm encode path the
// transports use (compare BenchmarkEncodeResultForward, which pays for
// a fresh buffer each call).
func BenchmarkAppendEncodeResultForward(b *testing.B) {
	var m Message = allocSample()
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := AppendEncode(buf[:0], m)
		if err != nil {
			b.Fatal(err)
		}
		buf = out
	}
}

// BenchmarkWireSizeResultForward measures sizing a message, which walks
// its fields without encoding them.
func BenchmarkWireSizeResultForward(b *testing.B) {
	var m Message = allocSample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if WireSize(m) == 0 {
			b.Fatal("WireSize refused a valid message")
		}
	}
}
