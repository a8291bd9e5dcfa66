// Package itcp implements an indirect-protocol baseline in the style of
// Bakre's I-TCP (paper §4): the respMss is the mobile host's fixed-side
// endpoint and holds the MH's full session image — its pending requests
// and every buffered, not-yet-acknowledged result. On each hand-off the
// whole image is shipped to the new station, and in-flight server
// replies are chased with a forwarding pointer.
//
// Functionally the baseline delivers results reliably, like RDP; the
// point of comparison (experiment E6) is the cost of mobility: its
// hand-off state transfer is O(pending + buffered results), against
// RDP's O(1) pref, because RDP parks that state at the proxy instead
// ("our protocol aims at minimizing the transfer of a MH's state
// between the old and new MSS during Hand-off, because most of the data
// related to the request is kept at the proxy", §5).
package itcp

import (
	"fmt"
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/wtp"
)

// Config parameterizes an I-TCP world.
type Config struct {
	Seed            int64
	NumMSS          int
	NumServers      int
	WiredLatency    netsim.LatencyModel
	WirelessLatency netsim.LatencyModel
	WirelessLoss    float64
	ServerProc      netsim.LatencyModel
	Observer        netsim.Observer
	// WirelessWTP, when enabled, carries the downlink over the windowed
	// wireless transport — I-TCP's wireless TCP hop, which E15 compares
	// against the RDP-side windowed link on equal terms.
	WirelessWTP wtp.Config
}

// DefaultConfig mirrors rdpcore.DefaultConfig's network parameters.
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		NumMSS:          3,
		NumServers:      1,
		WiredLatency:    netsim.Constant(5 * time.Millisecond),
		WirelessLatency: netsim.Constant(20 * time.Millisecond),
		ServerProc:      netsim.Constant(150 * time.Millisecond),
	}
}

// Stats aggregates the baseline's measurements.
type Stats struct {
	RequestsIssued    metrics.Counter
	ResultsDelivered  metrics.Counter
	Duplicates        metrics.Counter
	Handoffs          metrics.Counter
	HandoffStateBytes metrics.Counter
	ChasedResults     metrics.Counter // server replies forwarded after the image moved
	WirelessDrops     metrics.Counter
	ResultLatency     metrics.Histogram
	HandoffLatency    metrics.Histogram
}

// sessionImage is the per-MH state an I-TCP-style station maintains: the
// open requests and every result delivered-but-unacked or not yet
// deliverable.
type sessionImage struct {
	pending map[ids.RequestID]bool   // issued, no result yet
	results map[ids.RequestID][]byte // buffered until acked
	order   []ids.RequestID
}

func newImage() *sessionImage {
	return &sessionImage{
		pending: make(map[ids.RequestID]bool),
		results: make(map[ids.RequestID][]byte),
	}
}

// World is the I-TCP-style simulation world.
type World struct {
	cfg   Config
	Stats *Stats

	Kernel   *sim.Kernel
	Wired    *netsim.Wired
	Wireless *netsim.Wireless

	stations map[ids.MSS]*station
	servers  map[ids.Server]*server.AppServer
	mhs      map[ids.MH]*Mobile

	mssList []ids.MSS
	loc     map[ids.MH]ids.MSS
	active  map[ids.MH]bool
}

// NewWorld builds an I-TCP world.
func NewWorld(cfg Config) *World {
	if cfg.NumMSS < 1 {
		panic("itcp: Config.NumMSS must be >= 1")
	}
	w := &World{
		cfg:      cfg,
		Stats:    &Stats{},
		Kernel:   sim.NewKernel(cfg.Seed),
		stations: make(map[ids.MSS]*station),
		servers:  make(map[ids.Server]*server.AppServer),
		mhs:      make(map[ids.MH]*Mobile),
		loc:      make(map[ids.MH]ids.MSS),
		active:   make(map[ids.MH]bool),
	}
	members := make([]ids.NodeID, 0, cfg.NumMSS+cfg.NumServers)
	for i := 1; i <= cfg.NumMSS; i++ {
		w.mssList = append(w.mssList, ids.MSS(i))
		members = append(members, ids.MSS(i).Node())
	}
	for i := 1; i <= cfg.NumServers; i++ {
		members = append(members, ids.Server(i).Node())
	}
	w.Wired = netsim.NewWired(w.Kernel, members, netsim.WiredConfig{Latency: cfg.WiredLatency, Causal: true}, cfg.Observer)
	w.Wireless = netsim.NewWireless(w.Kernel, netsim.WirelessConfig{
		Latency:   cfg.WirelessLatency,
		LossProb:  cfg.WirelessLoss,
		Reachable: func(mss ids.MSS, mh ids.MH) bool { return w.loc[mh] == mss && w.active[mh] },
		WTP:       cfg.WirelessWTP,
		OnDrop:    func(netsim.Layer, netsim.EventKind) { w.Stats.WirelessDrops.Inc() },
	}, cfg.Observer)

	for _, id := range w.mssList {
		st := &station{
			id:        id,
			w:         w,
			images:    make(map[ids.MH]*sessionImage),
			arriving:  make(map[ids.MH]*handoffWait),
			forwardTo: make(map[ids.MH]ids.MSS),
		}
		w.stations[id] = st
		w.Wired.Register(id.Node(), st)
		w.Wireless.RegisterMSS(id, st)
	}
	for i := 1; i <= cfg.NumServers; i++ {
		id := ids.Server(i)
		s := server.New(id, w.Kernel, w.Wired, cfg.ServerProc, nil)
		w.servers[id] = s
		w.Wired.Register(id.Node(), s)
	}
	return w
}

// StationList returns station identifiers in ascending order.
func (w *World) StationList() []ids.MSS {
	return append([]ids.MSS(nil), w.mssList...)
}

// AddMH creates a mobile in the given cell.
func (w *World) AddMH(id ids.MH, cell ids.MSS) *Mobile {
	if _, dup := w.mhs[id]; dup {
		panic(fmt.Sprintf("itcp: duplicate MH %v", id))
	}
	st, ok := w.stations[cell]
	if !ok {
		panic(fmt.Sprintf("itcp: unknown cell %v", cell))
	}
	m := &Mobile{id: id, w: w, cell: cell, seen: make(map[ids.RequestID]bool), issuedAt: make(map[ids.RequestID]sim.Time)}
	w.mhs[id] = m
	w.loc[id] = cell
	w.active[id] = true
	w.Wireless.RegisterMH(id, m)
	st.images[id] = newImage()
	return m
}

// Migrate moves the mobile to a new cell; an active mobile greets it,
// triggering the image hand-off.
func (w *World) Migrate(id ids.MH, cell ids.MSS) {
	m, ok := w.mhs[id]
	if !ok {
		panic(fmt.Sprintf("itcp: unknown MH %v", id))
	}
	if w.loc[id] == cell {
		return
	}
	w.loc[id] = cell
	if w.active[id] {
		old := m.cell
		m.cell = cell
		w.Wireless.SendUplink(id, cell, msg.Greet{MH: id, OldMSS: old})
	}
}

// SetActive toggles activity; activation greets the current cell so the
// station can retransmit buffered results.
func (w *World) SetActive(id ids.MH, activeNow bool) {
	m, ok := w.mhs[id]
	if !ok {
		panic(fmt.Sprintf("itcp: unknown MH %v", id))
	}
	if w.active[id] == activeNow {
		return
	}
	w.active[id] = activeNow
	if activeNow {
		old := m.cell
		m.cell = w.loc[id]
		w.Wireless.SendUplink(id, m.cell, msg.Greet{MH: id, OldMSS: old})
	}
}

// Node returns the mobile added with AddMH, or nil if unknown.
func (w *World) Node(id ids.MH) *Mobile { return w.mhs[id] }

// ServerList returns server identifiers in ascending order.
func (w *World) ServerList() []ids.Server {
	out := make([]ids.Server, w.cfg.NumServers)
	for i := range out {
		out[i] = ids.Server(i + 1)
	}
	return out
}

// IssueRequest makes the MH issue a request (by id, as scripted
// workloads address hosts).
func (w *World) IssueRequest(id ids.MH, server ids.Server, payload []byte) ids.RequestID {
	return w.Node(id).IssueRequest(server, payload)
}

// RunUntil advances the simulation.
func (w *World) RunUntil(t time.Duration) { w.Kernel.RunUntil(sim.Time(t)) }

// handoffWait tracks an in-progress image hand-off at the new station.
type handoffWait struct {
	greetAt  sim.Time
	buffered []msg.Message
}

// station is an I-TCP-style support station holding full session images.
type station struct {
	id        ids.MSS
	w         *World
	images    map[ids.MH]*sessionImage
	arriving  map[ids.MH]*handoffWait
	forwardTo map[ids.MH]ids.MSS
}

// HandleMessage implements netsim.Handler. The request path's and the
// hand-off's kinds are read through their leg (they may be shown as a
// borrowed view); what the station buffers it boxes from the typed value.
func (s *station) HandleMessage(from ids.NodeID, m msg.Message) {
	l, _ := msg.LegOf(m)
	switch m.Kind() {
	case msg.KindGreet:
		s.handleGreet(l.Greet())
	case msg.KindRequest:
		s.handleRequest(l.Request())
	case msg.KindAckMH:
		s.handleAck(l.AckMH())
	case msg.KindDereg:
		s.handleDereg(l.Dereg())
	case msg.KindImageTransfer:
		s.handleImage(m.(msg.ImageTransfer))
	case msg.KindServerResult:
		s.handleServerResult(l.ServerResult())
	}
}

func (s *station) handleGreet(m msg.Greet) {
	if m.OldMSS == s.id {
		// Reactivation in place: retransmit buffered results.
		if img, ok := s.images[m.MH]; ok {
			s.retransmit(m.MH, img)
		}
		return
	}
	if _, ok := s.arriving[m.MH]; ok {
		return
	}
	s.arriving[m.MH] = &handoffWait{greetAt: s.w.Kernel.Now()}
	s.w.Wired.Send(s.id.Node(), m.OldMSS.Node(), msg.Dereg{MH: m.MH, NewMSS: s.id})
}

func (s *station) handleDereg(m msg.Dereg) {
	img := s.images[m.MH]
	delete(s.images, m.MH)
	s.forwardTo[m.MH] = m.NewMSS
	out := msg.ImageTransfer{MH: m.MH}
	if img != nil {
		for _, req := range img.order {
			if img.pending[req] {
				out.Pending = append(out.Pending, req)
			}
			if r, ok := img.results[req]; ok {
				out.Pending = append(out.Pending, req)
				out.Results = append(out.Results, r)
			}
		}
	}
	s.w.Stats.HandoffStateBytes.Add(int64(msg.WireSize(out)))
	s.w.Wired.Send(s.id.Node(), m.NewMSS.Node(), out)
}

func (s *station) handleImage(m msg.ImageTransfer) {
	wait := s.arriving[m.MH]
	delete(s.arriving, m.MH)
	delete(s.forwardTo, m.MH)
	img := newImage()
	ri := 0
	for _, req := range m.Pending {
		if _, dup := img.pending[req]; dup || img.results[req] != nil {
			continue
		}
		img.order = append(img.order, req)
		img.pending[req] = true
	}
	// Pending entries that carried a result: the Dereg encoding appends
	// result-bearing requests after pure-pending ones, results aligned in
	// order.
	for _, req := range m.Pending[len(m.Pending)-len(m.Results):] {
		if ri >= len(m.Results) {
			break
		}
		img.results[req] = m.Results[ri]
		delete(img.pending, req)
		ri++
	}
	s.images[m.MH] = img
	s.w.Stats.Handoffs.Inc()
	if wait != nil {
		s.w.Stats.HandoffLatency.Observe(time.Duration(s.w.Kernel.Now() - wait.greetAt))
	}
	s.retransmit(m.MH, img)
	if wait != nil {
		for _, bm := range wait.buffered {
			s.HandleMessage(m.MH.Node(), bm)
		}
	}
}

// retransmit re-sends every buffered result to the MH.
func (s *station) retransmit(mh ids.MH, img *sessionImage) {
	for _, req := range img.order {
		if r, ok := img.results[req]; ok {
			s.w.Wireless.SendDownlink(s.id, mh, msg.ResultDeliver{Req: req, Payload: r})
		}
	}
}

func (s *station) handleRequest(m msg.Request) {
	mh := m.Req.Origin
	if wait, ok := s.arriving[mh]; ok {
		wait.buffered = append(wait.buffered, m)
		return
	}
	img, ok := s.images[mh]
	if !ok {
		if next, fwd := s.forwardTo[mh]; fwd {
			s.w.Wired.Send(s.id.Node(), next.Node(), m)
		}
		return
	}
	if img.pending[m.Req] || img.results[m.Req] != nil {
		return
	}
	img.pending[m.Req] = true
	img.order = append(img.order, m.Req)
	// The station itself is the fixed-side endpoint: the server replies
	// to whoever sent the request (Proxy.Host names this station).
	s.w.Wired.Send(s.id.Node(), m.Server.Node(), msg.ServerRequest{
		Proxy: ids.ProxyID{Host: s.id, Seq: uint32(mh)}, Req: m.Req, Payload: m.Payload,
	})
}

func (s *station) handleServerResult(m msg.ServerResult) {
	mh := m.Req.Origin
	if wait, ok := s.arriving[mh]; ok {
		wait.buffered = append(wait.buffered, m)
		return
	}
	img, ok := s.images[mh]
	if !ok {
		// The image moved while the reply was in flight: chase it.
		if next, fwd := s.forwardTo[mh]; fwd {
			s.w.Stats.ChasedResults.Inc()
			s.w.Wired.Send(s.id.Node(), next.Node(), m)
		}
		return
	}
	if img.results[m.Req] != nil {
		return // duplicate reply
	}
	delete(img.pending, m.Req)
	img.results[m.Req] = m.Payload
	s.w.Wireless.SendDownlink(s.id, mh, msg.ResultDeliver{Req: m.Req, Payload: m.Payload})
}

func (s *station) handleAck(m msg.AckMH) {
	img, ok := s.images[m.MH]
	if !ok {
		return
	}
	if img.results[m.Req] == nil {
		return
	}
	delete(img.results, m.Req)
	for i, q := range img.order {
		if q == m.Req {
			img.order = append(img.order[:i], img.order[i+1:]...)
			break
		}
	}
}

// Image returns the buffered pending/result counts for an MH at a
// station (test hook).
func (s *station) Image(mh ids.MH) (pending, buffered int) {
	img, ok := s.images[mh]
	if !ok {
		return 0, 0
	}
	return len(img.pending), len(img.results)
}

// StationImage exposes Image by station id (test hook on World).
func (w *World) StationImage(mss ids.MSS, mh ids.MH) (pending, buffered int) {
	return w.stations[mss].Image(mh)
}

// stationFor returns a station node (test hook).
func (w *World) stationFor(id ids.MSS) *station { return w.stations[id] }

// Mobile is the I-TCP client.
type Mobile struct {
	id       ids.MH
	w        *World
	cell     ids.MSS
	nextSeq  uint32
	seen     map[ids.RequestID]bool
	issuedAt map[ids.RequestID]sim.Time
}

// ID returns the mobile's identifier.
func (m *Mobile) ID() ids.MH { return m.id }

// Seen reports whether the result of req was received.
func (m *Mobile) Seen(req ids.RequestID) bool { return m.seen[req] }

// IssueRequest sends a request through the current station.
func (m *Mobile) IssueRequest(server ids.Server, payload []byte) ids.RequestID {
	m.nextSeq++
	req := ids.RequestID{Origin: m.id, Seq: m.nextSeq}
	m.issuedAt[req] = m.w.Kernel.Now()
	m.w.Stats.RequestsIssued.Inc()
	m.w.Wireless.SendUplink(m.id, m.cell, msg.Request{Req: req, Server: server, Payload: payload})
	return req
}

// HandleMessage implements netsim.Handler for the mobile's radio.
func (m *Mobile) HandleMessage(from ids.NodeID, mm msg.Message) {
	if mm.Kind() != msg.KindResultDeliver {
		return
	}
	l, _ := msg.LegOf(mm)
	r := l.ResultDeliver()
	dup := m.seen[r.Req]
	m.seen[r.Req] = true
	if dup {
		m.w.Stats.Duplicates.Inc()
	} else {
		m.w.Stats.ResultsDelivered.Inc()
		if at, known := m.issuedAt[r.Req]; known {
			m.w.Stats.ResultLatency.Observe(time.Duration(m.w.Kernel.Now() - at))
		}
	}
	m.w.Wireless.SendUplink(m.id, m.cell, msg.AckMH{MH: m.id, Req: r.Req})
}
