// Package server provides the wired-network application servers of the
// system model (§2): fixed-address services that process requests —
// possibly slowly, as in the SIDAM traffic-information scenario whose
// "queries may eventually require time-consuming data location and
// retrieval protocols" — and reply to whoever asked. Under RDP the asker
// is always a proxy, so "from the server's point of view, the service is
// being requested from a fixed client" (§5).
package server

import (
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Handler computes a reply payload for a request payload. It runs after
// the configured processing delay has elapsed.
type Handler func(req []byte) []byte

// Echo is the default handler: it returns the request payload prefixed
// with "re:".
func Echo(req []byte) []byte {
	out := make([]byte, 0, len(req)+3)
	out = append(out, "re:"...)
	return append(out, req...)
}

// AppServer is one application server on the wired network.
type AppServer struct {
	id      ids.Server
	wired   netsim.WiredTransport
	proc    netsim.LatencyModel
	rng     *sim.RNG
	handler Handler

	// pending maps an in-service request to the proxy the reply must go
	// to. A pref_redirect can rebind the entry while the request is still
	// processing (its proxy migrated), so the reply chases the proxy's
	// new home instead of the tombstone.
	pending map[ids.RequestID]ids.ProxyID
	jobs    *sim.Calls[msg.ServerRequest] // requests in processing
	// out is the server's outgoing leg slot: a reply is written here and
	// sent as a view of it (see netsim.Handler).
	out msg.Leg

	// Served counts completed requests; Acked counts application-level
	// acks received from proxies.
	Served metrics.Counter
	Acked  metrics.Counter
	// OnEcho, when set, is called for every pref_redirect echo the server
	// sends: its owner counts migration traffic where it is sent.
	OnEcho func()
}

// New constructs a server. proc models per-request processing time; a
// nil handler defaults to Echo.
func New(id ids.Server, kernel sim.Scheduler, wired netsim.WiredTransport, proc netsim.LatencyModel, handler Handler) *AppServer {
	if proc == nil {
		proc = netsim.Constant(0)
	}
	if handler == nil {
		handler = Echo
	}
	s := &AppServer{
		id:      id,
		wired:   wired,
		proc:    proc,
		rng:     kernel.RNG().Fork(),
		handler: handler,
		pending: make(map[ids.RequestID]ids.ProxyID),
	}
	s.jobs = sim.NewCalls(kernel, s.finish)
	return s
}

// ID returns the server identifier.
func (s *AppServer) ID() ids.Server { return s.id }

// SetHandler replaces the request handler (used by the SIDAM substrate
// to plug query processing into a generic server).
func (s *AppServer) SetHandler(h Handler) { s.handler = h }

// HandleMessage implements netsim.Handler: process ServerRequest after
// the sampled processing delay and reply to the proxy's hosting station;
// record ServerAck.
func (s *AppServer) HandleMessage(from ids.NodeID, m msg.Message) {
	switch m.Kind() {
	case msg.KindServerRequest:
		l, _ := msg.LegOf(m)
		v := l.ServerRequest()
		s.pending[v.Req] = v.Proxy
		s.jobs.Defer(s.proc.Sample(s.rng), v)
	case msg.KindPrefRedirect:
		v := m.(msg.PrefRedirect)
		if v.Confirm {
			return // echoes are station-bound; ignore a misdelivered one
		}
		if p, ok := s.pending[v.Req]; ok && p == v.OldProxy {
			s.pending[v.Req] = v.NewProxy
		}
		// Always confirm, even when the reply already left (the tombstone
		// redirects it): the old host blocks tombstone GC on this echo.
		v.Confirm = true
		if s.OnEcho != nil {
			s.OnEcho()
		}
		s.wired.Send(s.id.Node(), v.OldProxy.Host.Node(), v)
	case msg.KindServerAck:
		s.Acked.Inc()
	}
}

// finish completes a request whose processing delay has elapsed.
func (s *AppServer) finish(v msg.ServerRequest) {
	s.Served.Inc()
	reply := s.handler(v.Payload)
	// Read the live binding: a pref_redirect may have rebound it while
	// the request was processing. A duplicate re-request (recovery) whose
	// entry was already consumed replies to the proxy it named, matching
	// the pre-migration behavior.
	to, ok := s.pending[v.Req]
	if !ok {
		to = v.Proxy
	}
	delete(s.pending, v.Req)
	s.out = msg.ServerResult{Proxy: to, Req: v.Req, Payload: reply}.Leg()
	s.wired.Send(s.id.Node(), to.Host.Node(), msg.ViewOf(&s.out))
}
