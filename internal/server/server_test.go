package server

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func testNet(t *testing.T) (*sim.Kernel, *netsim.Wired) {
	t.Helper()
	k := sim.NewKernel(1)
	members := []ids.NodeID{ids.MSS(1).Node(), ids.Server(1).Node()}
	w := netsim.NewWired(k, members, netsim.WiredConfig{Latency: netsim.Constant(time.Millisecond), Causal: true}, nil)
	return k, w
}

func TestServerRepliesToProxyHost(t *testing.T) {
	k, w := testNet(t)
	srv := New(1, k, w, netsim.Constant(10*time.Millisecond), nil)
	w.Register(ids.Server(1).Node(), srv)
	var got []msg.Message
	w.Register(ids.MSS(1).Node(), netsim.HandlerFunc(func(from ids.NodeID, m msg.Message) {
		got = append(got, msg.Keep(m))
	}))

	prx := ids.ProxyID{Host: 1, Seq: 1}
	req := ids.RequestID{Origin: 7, Seq: 1}
	w.Send(ids.MSS(1).Node(), ids.Server(1).Node(), msg.ServerRequest{Proxy: prx, Req: req, Payload: []byte("q")})
	k.Run()

	if len(got) != 1 {
		t.Fatalf("proxy host received %d messages, want 1", len(got))
	}
	res, ok := got[0].(msg.ServerResult)
	if !ok {
		t.Fatalf("got %T, want ServerResult", got[0])
	}
	if res.Proxy != prx || res.Req != req {
		t.Errorf("reply addressed %v/%v, want %v/%v", res.Proxy, res.Req, prx, req)
	}
	if string(res.Payload) != "re:q" {
		t.Errorf("payload = %q, want echo %q", res.Payload, "re:q")
	}
	if srv.Served.Value() != 1 {
		t.Errorf("Served = %d, want 1", srv.Served.Value())
	}
	// Processing delay + two 1ms hops.
	if k.Now() != sim.Time(12*time.Millisecond) {
		t.Errorf("completion at %v, want 12ms", k.Now())
	}
}

func TestServerCustomHandler(t *testing.T) {
	k, w := testNet(t)
	srv := New(1, k, w, nil, func(req []byte) []byte { return []byte("fixed") })
	w.Register(ids.Server(1).Node(), srv)
	var payload []byte
	w.Register(ids.MSS(1).Node(), netsim.HandlerFunc(func(_ ids.NodeID, m msg.Message) {
		payload = msg.Keep(m).(msg.ServerResult).Payload
	}))
	w.Send(ids.MSS(1).Node(), ids.Server(1).Node(), msg.ServerRequest{
		Proxy: ids.ProxyID{Host: 1, Seq: 1}, Req: ids.RequestID{Origin: 1, Seq: 1},
	})
	k.Run()
	if string(payload) != "fixed" {
		t.Errorf("payload = %q, want %q", payload, "fixed")
	}
}

func TestServerSetHandler(t *testing.T) {
	k, w := testNet(t)
	srv := New(1, k, w, nil, nil)
	w.Register(ids.Server(1).Node(), srv)
	srv.SetHandler(func([]byte) []byte { return []byte("swapped") })
	var payload []byte
	w.Register(ids.MSS(1).Node(), netsim.HandlerFunc(func(_ ids.NodeID, m msg.Message) {
		payload = msg.Keep(m).(msg.ServerResult).Payload
	}))
	w.Send(ids.MSS(1).Node(), ids.Server(1).Node(), msg.ServerRequest{
		Proxy: ids.ProxyID{Host: 1, Seq: 1}, Req: ids.RequestID{Origin: 1, Seq: 1},
	})
	k.Run()
	if string(payload) != "swapped" {
		t.Errorf("payload = %q, want %q", payload, "swapped")
	}
}

func TestServerCountsAcks(t *testing.T) {
	k, w := testNet(t)
	srv := New(1, k, w, nil, nil)
	w.Register(ids.Server(1).Node(), srv)
	w.Register(ids.MSS(1).Node(), netsim.HandlerFunc(func(ids.NodeID, msg.Message) {}))
	w.Send(ids.MSS(1).Node(), ids.Server(1).Node(), msg.ServerAck{Req: ids.RequestID{Origin: 1, Seq: 1}})
	k.Run()
	if srv.Acked.Value() != 1 {
		t.Errorf("Acked = %d, want 1", srv.Acked.Value())
	}
}

func TestEcho(t *testing.T) {
	if got := string(Echo([]byte("abc"))); got != "re:abc" {
		t.Errorf("Echo = %q", got)
	}
	if got := string(Echo(nil)); got != "re:" {
		t.Errorf("Echo(nil) = %q", got)
	}
}

// sink is a wired transport that counts the replies it is handed, so
// the job's own cost is all that is measured.
type sink struct{ sent int }

func (s *sink) Send(_, _ ids.NodeID, m msg.Message) {
	if m.Kind() == msg.KindServerResult {
		s.sent++
	}
}
func (s *sink) Register(ids.NodeID, netsim.Handler) {}

// TestServerJobAllocBudget: a request in processing is a recycled job
// record, and its reply is written into the server's outgoing slot and
// sent as a view of it; what one still costs is Echo's reply slice. The
// request arrives as the substrates show it, a view.
func TestServerJobAllocBudget(t *testing.T) {
	req := msg.ServerRequest{
		Proxy: ids.ProxyID{Host: 1, Seq: 1}, Req: ids.RequestID{Origin: 7, Seq: 1}, Payload: []byte("q"),
	}.Leg()
	k := sim.NewKernel(1)
	out := &sink{}
	srv := New(1, k, out, netsim.Constant(time.Millisecond), nil)
	step := func() {
		srv.HandleMessage(ids.MSS(1).Node(), msg.ViewOf(&req))
		srv.HandleMessage(ids.MSS(1).Node(), msg.ViewOf(&req)) // two in processing at once
		k.Run()
	}
	for i := 0; i < 8; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(200, step); avg > 2 {
		t.Errorf("two server jobs: %.1f allocs, budget 2", avg)
	}
	if out.sent != 2*(8+201) {
		t.Errorf("server sent %d replies, want %d", out.sent, 2*(8+201))
	}
}
