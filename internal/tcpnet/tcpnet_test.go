package tcpnet

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/causal"
	"repro/internal/ids"
	"repro/internal/livenet"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/rdpcore"
)

// testConfig is a small world tuned for wall-clock runs: fast server,
// short retry so any timing race self-heals within the test deadline.
func testConfig() rdpcore.Config {
	return rdpcore.Config{
		Seed:           1,
		NumMSS:         3,
		NumServers:     1,
		ServerProc:     netsim.Constant(20 * time.Millisecond),
		RequestTimeout: 500 * time.Millisecond,
		GreetRefresh:   300 * time.Millisecond,
	}
}

// tcpWorld builds a world whose two substrates are this package's real
// TCP endpoints, started and ready. Callers interact via rt.Do.
func tcpWorld(t *testing.T, cfg rdpcore.Config) (*rdpcore.World, *livenet.Runtime, *Net) {
	t.Helper()
	rt := livenet.New(cfg.Seed)
	members := make([]ids.NodeID, 0, cfg.NumMSS+cfg.NumServers)
	for i := 1; i <= cfg.NumMSS; i++ {
		members = append(members, ids.MSS(i).Node())
	}
	for i := 1; i <= cfg.NumServers; i++ {
		members = append(members, ids.Server(i).Node())
	}
	n := New(rt, members)
	if err := n.Start(); err != nil {
		t.Fatalf("tcpnet start: %v", err)
	}
	w := rdpcore.NewWorldWith(rt, cfg, n, n)
	n.SetReachable(w.Reachable)
	rt.Start()
	t.Cleanup(func() {
		rt.Stop()
		n.Close()
	})
	return w, rt, n
}

// TestRequestResponseOverTCP sends one request through real loopback
// sockets: MH -> MSS radio frame, MSS -> server wired frame with causal
// stamp, and the result back down. The paper's prototype plan —
// "distributed processes within a Linux network" — end to end.
func TestRequestResponseOverTCP(t *testing.T) {
	w, rt, _ := tcpWorld(t, testConfig())
	done := make(chan []byte, 1)
	rt.Do(func() {
		mh := w.AddMH(1, 1)
		mh.OnResult(func(_ ids.RequestID, payload []byte, dup bool) {
			if !dup {
				done <- payload
			}
		})
		mh.IssueRequest(1, []byte("over-tcp"))
	})
	select {
	case got := <-done:
		if !bytes.Contains(got, []byte("over-tcp")) {
			t.Fatalf("result payload %q does not echo request", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("result never delivered over TCP")
	}
	rt.Do(func() {
		if err := w.CheckInvariants(); err != nil {
			t.Errorf("invariants after delivery: %v", err)
		}
	})
}

// TestMigrationOverTCP issues a request and migrates the host twice
// while the server is still computing, so the proxy must chase the host
// across real TCP links (hand-off, update_currentLoc, retransmission).
func TestMigrationOverTCP(t *testing.T) {
	cfg := testConfig()
	cfg.ServerProc = netsim.Constant(150 * time.Millisecond)
	w, rt, _ := tcpWorld(t, cfg)

	var (
		mu        sync.Mutex
		delivered []ids.RequestID
	)
	var req ids.RequestID
	rt.Do(func() {
		mh := w.AddMH(1, 1)
		mh.OnResult(func(r ids.RequestID, _ []byte, dup bool) {
			if dup {
				return
			}
			mu.Lock()
			delivered = append(delivered, r)
			mu.Unlock()
		})
		req = mh.IssueRequest(1, []byte("chase-me"))
	})
	// Hand off twice while the result is still being computed.
	time.Sleep(30 * time.Millisecond)
	rt.Do(func() { w.Migrate(1, 2) })
	time.Sleep(30 * time.Millisecond)
	rt.Do(func() { w.Migrate(1, 3) })

	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		got := len(delivered)
		mu.Unlock()
		if got > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("result never chased the host over TCP")
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	if delivered[0] != req {
		t.Errorf("delivered %v, want %v", delivered[0], req)
	}
	mu.Unlock()
	rt.Do(func() {
		if err := w.CheckInvariants(); err != nil {
			t.Errorf("invariants after hand-offs: %v", err)
		}
	})
}

// TestInactiveHostBuffersOverTCP disconnects the host; the radio gate at
// the TCP edge must drop the downlink frame, and reactivation must fetch
// the buffered result via the retransmit-on-update rule.
func TestInactiveHostBuffersOverTCP(t *testing.T) {
	cfg := testConfig()
	cfg.ServerProc = netsim.Constant(100 * time.Millisecond)
	w, rt, _ := tcpWorld(t, cfg)

	done := make(chan struct{}, 1)
	rt.Do(func() {
		mh := w.AddMH(1, 1)
		mh.OnResult(func(_ ids.RequestID, _ []byte, dup bool) {
			if !dup {
				done <- struct{}{}
			}
		})
		mh.IssueRequest(1, []byte("while-asleep"))
	})
	time.Sleep(20 * time.Millisecond)
	rt.Do(func() { w.SetActive(1, false) })
	// Let the result arrive at the cell while the host is unreachable.
	time.Sleep(300 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("result delivered to an inactive host")
	default:
	}
	rt.Do(func() { w.SetActive(1, true) })
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("buffered result not delivered after reactivation")
	}
}

// TestManyRequestsManyHostsOverTCP drives several hosts concurrently
// with interleaved migrations — a miniature soak over real sockets.
func TestManyRequestsManyHostsOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock soak")
	}
	cfg := testConfig()
	w, rt, _ := tcpWorld(t, cfg)

	const (
		hosts    = 4
		requests = 5
	)
	var (
		mu   sync.Mutex
		got  = map[ids.MH]int{}
		want = hosts * requests
	)
	rt.Do(func() {
		for h := 1; h <= hosts; h++ {
			id := ids.MH(h)
			mh := w.AddMH(id, ids.MSS(h%3+1))
			mh.OnResult(func(_ ids.RequestID, _ []byte, dup bool) {
				if dup {
					return
				}
				mu.Lock()
				got[id]++
				mu.Unlock()
			})
		}
	})
	for r := 0; r < requests; r++ {
		rt.Do(func() {
			for h := 1; h <= hosts; h++ {
				w.MHs[ids.MH(h)].IssueRequest(1, []byte{byte(r)})
			}
		})
		time.Sleep(15 * time.Millisecond)
		rt.Do(func() {
			for h := 1; h <= hosts; h++ {
				w.Migrate(ids.MH(h), ids.MSS((h+r)%3+1))
			}
		})
		time.Sleep(15 * time.Millisecond)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		mu.Lock()
		total := 0
		for _, c := range got {
			total += c
		}
		mu.Unlock()
		if total >= want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d results delivered", total, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
	rt.Do(func() {
		if err := w.CheckInvariants(); err != nil {
			t.Errorf("invariants after soak: %v", err)
		}
	})
}

// TestFrameRoundTrip checks the wire codec on both stamped and
// unstamped frames.
func TestFrameRoundTrip(t *testing.T) {
	frames := []frame{
		{
			layer: netsim.LayerWired,
			from:  ids.MSS(1).Node(), to: ids.Server(1).Node(),
			m:     msg.ServerRequest{Proxy: ids.ProxyID{Host: 1, Seq: 1}, Req: ids.RequestID{Origin: 1, Seq: 1}, Payload: []byte("x")},
			stamp: wireStamp(3, 2),
		},
		{
			layer: netsim.LayerWireless,
			from:  ids.MH(1).Node(), to: ids.MSS(2).Node(),
			m: msg.Greet{MH: 1, OldMSS: 1},
		},
	}
	for _, f := range frames {
		b, err := encodeFrame(f)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := readFrame(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.layer != f.layer || got.from != f.from || got.to != f.to {
			t.Errorf("header mismatch: got %+v want %+v", got, f)
		}
		if !bytes.Equal(got.stamp, f.stamp) {
			t.Errorf("stamp mismatch: got %x want %x", got.stamp, f.stamp)
		}
		if got.m.Kind() != f.m.Kind() {
			t.Errorf("message kind %v, want %v", got.m.Kind(), f.m.Kind())
		}
	}
}

// TestFrameTruncation verifies every truncation point errors rather
// than hanging or mis-parsing.
func TestFrameTruncation(t *testing.T) {
	f := frame{
		layer: netsim.LayerWired,
		from:  ids.MSS(1).Node(), to: ids.Server(1).Node(),
		m:     msg.ServerRequest{Proxy: ids.ProxyID{Host: 1, Seq: 1}, Req: ids.RequestID{Origin: 1, Seq: 1}, Payload: []byte("payload")},
		stamp: wireStamp(2, 0),
	}
	b, err := encodeFrame(f)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, err := readFrame(bytes.NewReader(b[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d decoded without error", cut, len(b))
		}
	}
}

// TestAddrAndClose covers the endpoint-address accessor and the
// shutdown path: after Close, sends fail quietly instead of panicking,
// and conn() refuses new dials.
func TestAddrAndClose(t *testing.T) {
	rt := livenet.New(1)
	members := []ids.NodeID{ids.MSS(1).Node(), ids.Server(1).Node()}
	n := New(rt, members)
	if err := n.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	for _, m := range members {
		if n.Addr(m) == "" {
			t.Errorf("no address for %v", m)
		}
	}
	if n.Addr(ids.MSS(9).Node()) != "" {
		t.Error("address reported for a non-member")
	}
	n.Close()
	// Sending after Close must be a quiet no-op (conn() errors out).
	n.Send(ids.MSS(1).Node(), ids.Server(1).Node(),
		msg.ServerRequest{Proxy: ids.ProxyID{Host: 1, Seq: 1}, Req: ids.RequestID{Origin: 1, Seq: 1}})
}

// TestSendToNonMemberPanics verifies the programming-error guard.
func TestSendToNonMemberPanics(t *testing.T) {
	rt := livenet.New(1)
	n := New(rt, []ids.NodeID{ids.MSS(1).Node()})
	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("send-from-non-member", func() {
		n.Send(ids.MSS(7).Node(), ids.MSS(1).Node(), msg.Greet{MH: 1})
	})
	assertPanics("send-to-non-member", func() {
		n.Send(ids.MSS(1).Node(), ids.Server(9).Node(), msg.Greet{MH: 1})
	})
}

// TestUplinkGateDropsAtSend covers the send-side radio gate: an uplink
// from a host the station cannot hear must not reach any handler.
func TestUplinkGateDropsAtSend(t *testing.T) {
	rt := livenet.New(1)
	n := New(rt, []ids.NodeID{ids.MSS(1).Node()})
	if err := n.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer n.Close()
	var got int
	n.RegisterMSS(1, netsim.HandlerFunc(func(ids.NodeID, msg.Message) { got++ }))
	n.SetReachable(func(ids.MSS, ids.MH) bool { return false })
	rt.Start()
	defer rt.Stop()
	rt.Do(func() { n.SendUplink(1, 1, msg.Join{MH: 1}) })
	time.Sleep(50 * time.Millisecond)
	rt.Do(func() {
		if got != 0 {
			t.Errorf("gated uplink delivered %d frames", got)
		}
	})
}

// TestOversizeFrameRejected covers the length guards in readFrame.
func TestOversizeFrameRejected(t *testing.T) {
	base := frame{
		layer: netsim.LayerWired,
		from:  ids.MSS(1).Node(), to: ids.MSS(2).Node(),
		m: msg.Greet{MH: 1},
	}
	b, err := encodeFrame(base)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// Corrupt the stamp length (bytes 11..15) to exceed the 1 MiB cap.
	huge := append([]byte(nil), b...)
	huge[11], huge[12], huge[13], huge[14] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := readFrame(bytes.NewReader(huge)); err == nil {
		t.Error("huge stamp length accepted")
	}
	// Corrupt the body length (the 4 bytes after the empty stamp).
	huge = append([]byte(nil), b...)
	huge[15], huge[16], huge[17], huge[18] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := readFrame(bytes.NewReader(huge)); err == nil {
		t.Error("huge body length accepted")
	}
}

// wireStamp is the wire form of a stamp process from would send in a
// fresh group of n.
func wireStamp(n, from int) []byte {
	return causal.Group(n, func(int, any) {})[from].Send((from + 1) % n).AppendBinary(nil)
}

// TestMisshapenStampDropped pins the remote-crash fix: a well-formed
// frame whose stamp is built for a smaller or larger group than this
// network's (or disagrees with its own size field) used to reach
// Endpoint.Receive and panic the dispatcher with an index out of range.
// It is now dropped and counted, and so is a stamp of the right shape
// naming a send this network's group has not made; the network keeps
// working.
func TestMisshapenStampDropped(t *testing.T) {
	rt := livenet.New(1)
	a, b := ids.MSS(1).Node(), ids.MSS(2).Node()
	n := New(rt, []ids.NodeID{a, b, ids.Server(1).Node()})
	var got []msg.Message
	n.Register(b, netsim.HandlerFunc(func(_ ids.NodeID, m msg.Message) { got = append(got, m) }))

	inconsistent := wireStamp(3, 0)
	inconsistent[7]++ // the stamp now claims n = 4 in a 3-wide body
	bad := map[string][]byte{
		"smaller group": wireStamp(1, 0),
		"larger group":  wireStamp(4, 0),
		"inconsistent":  inconsistent,
		"truncated":     wireStamp(3, 0)[:20],
		"unsent":        wireStamp(3, 0), // process 0 has sent nothing here
	}
	for name, stamp := range bad {
		raw, err := encodeFrame(frame{layer: netsim.LayerWired, from: a, to: b, m: msg.Greet{MH: 1}, stamp: stamp})
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		f, err := readFrame(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: framing rejected a well-formed frame: %v", name, err)
		}
		n.dispatch(f)
	}
	if len(got) != 0 {
		t.Errorf("misshapen stamps delivered %d messages", len(got))
	}
	if bad, want := n.Stats().BadStamps, uint64(len(bad)); bad != want {
		t.Errorf("BadStamps = %d, want %d", bad, want)
	}
	stamp := n.eps[0].Send(1).AppendBinary(nil)
	n.dispatch(frame{layer: netsim.LayerWired, from: a, to: b, m: msg.Greet{MH: 1}, stamp: stamp})
	if len(got) != 1 {
		t.Errorf("well-formed stamp after the bad ones: delivered %d messages, want 1", len(got))
	}
}

// TestQueuedRPCOverTCP composes the §4 pairing over real sockets: a
// request issued while the host is inactive is queued on the host and
// transmitted on reactivation (the retry timer, Config.RequestTimeout,
// covering a lost send), and the result comes back through the RDP proxy
// — reliable sending + reliable delivery end to end on TCP.
func TestQueuedRPCOverTCP(t *testing.T) {
	cfg := testConfig()
	cfg.RequestTimeout = 50 * time.Millisecond
	w, rt, _ := tcpWorld(t, cfg)

	done := make(chan []byte, 1)
	rt.Do(func() {
		mh := w.AddMH(1, 1)
		w.SetActive(1, false) // asleep before the request
		mh.OnResult(func(_ ids.RequestID, payload []byte, dup bool) {
			if !dup {
				done <- payload
			}
		})
		mh.IssueRequest(1, []byte("queued-while-off"))
	})
	time.Sleep(150 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("reply arrived while the host was disconnected")
	default:
	}
	rt.Do(func() { w.SetActive(1, true) })
	select {
	case got := <-done:
		if !bytes.Contains(got, []byte("queued-while-off")) {
			t.Fatalf("reply %q does not echo the request", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued request never completed over TCP")
	}
}

// TestWireStats checks the byte/frame accounting: a request-response
// exchange produces traffic on both substrates, and wired frames carry
// the causal-stamp overhead (larger than their payload alone).
func TestWireStats(t *testing.T) {
	w, rt, n := tcpWorld(t, testConfig())
	done := make(chan struct{}, 1)
	rt.Do(func() {
		mh := w.AddMH(1, 1)
		mh.OnResult(func(_ ids.RequestID, _ []byte, dup bool) {
			if !dup {
				done <- struct{}{}
			}
		})
		mh.IssueRequest(1, []byte("count-me"))
	})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("delivery timed out")
	}
	s := n.Stats()
	if s.WiredFrames == 0 || s.WirelessFrames == 0 {
		t.Fatalf("no traffic counted: %+v", s)
	}
	if s.WiredBytes <= s.WiredFrames*19 {
		t.Errorf("wired bytes %d too small for %d frames (no stamp overhead?)",
			s.WiredBytes, s.WiredFrames)
	}
	// Wired frames average larger than wireless ones: same header, plus
	// a causal stamp of n send counts per frame.
	if s.WiredBytes/s.WiredFrames <= s.WirelessBytes/s.WirelessFrames {
		t.Errorf("wired avg %d <= wireless avg %d; causal stamps missing",
			s.WiredBytes/s.WiredFrames, s.WirelessBytes/s.WirelessFrames)
	}
}
