package tcpnet

import (
	"bytes"
	"testing"

	"repro/internal/ids"
	"repro/internal/livenet"
	"repro/internal/msg"
	"repro/internal/netsim"
)

// FuzzReadFrame feeds arbitrary byte streams to the frame reader: it
// must never panic or over-allocate, every frame it does accept must
// re-encode to the same bytes it consumed (when it consumed the whole
// input), and dispatching it into a 3-member network must not panic
// whatever its stamp claims to be. The first seed's stamp is a send the
// network's own group made, so it reaches the causal layer.
func FuzzReadFrame(f *testing.F) {
	net := New(livenet.New(1), []ids.NodeID{ids.MSS(1).Node(), ids.MSS(2).Node(), ids.Server(1).Node()})
	seed := []frame{
		{
			layer: netsim.LayerWired,
			from:  ids.MSS(1).Node(), to: ids.Server(1).Node(),
			m:     msg.ServerRequest{Proxy: ids.ProxyID{Host: 1, Seq: 1}, Req: ids.RequestID{Origin: 1, Seq: 9}, Payload: []byte("fuzz")},
			stamp: net.eps[0].Send(2).AppendBinary(nil),
		},
		{
			layer: netsim.LayerWireless,
			from:  ids.MH(2).Node(), to: ids.MSS(1).Node(),
			m: msg.AckMH{MH: 2, Req: ids.RequestID{Origin: 2, Seq: 4}},
		},
	}
	for _, fr := range seed {
		b, err := encodeFrame(fr)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	// Well-formed frames whose stamp is for a smaller and a larger group
	// than the receiver's (once a dispatcher panic), and one of the right
	// size naming sends the group has not made: each a counted drop.
	for _, stamp := range [][]byte{wireStamp(1, 0), wireStamp(4, 0), wireStamp(3, 1)} {
		fr := seed[0]
		fr.stamp = stamp
		b, err := encodeFrame(fr)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		got, err := readFrame(r)
		if err != nil {
			return
		}
		if got.m == nil {
			t.Fatal("readFrame returned a frame with a nil message and no error")
		}
		net.dispatch(got)
		// Accepted frames must re-encode (possibly canonicalizing loose
		// input, e.g. non-zero-or-one bool bytes), and the re-encoding
		// must be a fixed point: decode(encode(f)) == encode(f).
		re, err := encodeFrame(got)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		got2, err := readFrame(bytes.NewReader(re))
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if got2.layer != got.layer || got2.from != got.from || got2.to != got.to ||
			!bytes.Equal(got2.stamp, got.stamp) ||
			got2.m.Kind() != got.m.Kind() {
			t.Fatalf("round trip changed the frame: %+v vs %+v", got, got2)
		}
		re2, err := encodeFrame(got2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("encoding not a fixed point:\n first  %x\n second %x", re, re2)
		}
	})
}
