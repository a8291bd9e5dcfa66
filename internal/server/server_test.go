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
		got = append(got, m)
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
		payload = m.(msg.ServerResult).Payload
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
		payload = m.(msg.ServerResult).Payload
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

// sink is a wired transport that drops what it is given, so the job's
// own cost is all that is measured.
type sink struct{ sent int }

func (s *sink) Send(_, _ ids.NodeID, _ msg.Message) { s.sent++ }
func (s *sink) Register(ids.NodeID, netsim.Handler) {}

// legSink is a sink with leg sends, like the netsim substrates.
type legSink struct{ sink }

func (s *legSink) SendLeg(_, _ ids.NodeID, l msg.Leg) {
	if l.Kind == msg.KindServerResult {
		s.sent++
	}
}

// TestServerJobAllocBudget: a request in processing is a recycled job
// record; what one still costs is the reply — Echo's slice, and over a
// transport without leg sends the ServerResult boxed for the wire. Over
// one with leg sends, taking its requests as legs, the reply travels
// unboxed.
func TestServerJobAllocBudget(t *testing.T) {
	req := msg.ServerRequest{
		Proxy: ids.ProxyID{Host: 1, Seq: 1}, Req: ids.RequestID{Origin: 7, Seq: 1}, Payload: []byte("q"),
	}
	var boxed msg.Message = req
	for _, c := range []struct {
		name   string
		out    netsim.WiredTransport
		handle func(*AppServer)
		budget float64
	}{
		{"boxed", &sink{}, func(s *AppServer) { s.HandleMessage(ids.MSS(1).Node(), boxed) }, 4},
		{"legs", &legSink{}, func(s *AppServer) { s.HandleLeg(ids.MSS(1).Node(), req.Leg()) }, 2},
	} {
		k := sim.NewKernel(1)
		srv := New(1, k, c.out, netsim.Constant(time.Millisecond), nil)
		step := func() {
			c.handle(srv)
			c.handle(srv) // two in processing at once
			k.Run()
		}
		for i := 0; i < 8; i++ {
			step()
		}
		if avg := testing.AllocsPerRun(200, step); avg > c.budget {
			t.Errorf("two server jobs, %s: %.1f allocs, budget %v", c.name, avg, c.budget)
		}
		sent := 0
		switch out := c.out.(type) {
		case *sink:
			sent = out.sent
		case *legSink:
			sent = out.sent
		}
		if sent != 2*(8+201) {
			t.Errorf("%s: server sent %d replies, want %d", c.name, sent, 2*(8+201))
		}
	}
}
