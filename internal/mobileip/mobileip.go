// Package mobileip implements the Mobile IP-style baseline the paper
// compares RDP against (§4): datagrams for a mobile host are routed to
// its *fixed* home agent, which tunnels them to the registered care-of
// address (the foreign agent of the MH's current cell).
//
// Faithful to the comparison, the baseline provides NO delivery
// guarantee: "IP datagrams may be lost while a new care-of address
// change is on its way to the home agent, or during the periods of
// inactivity of the mobile host". Recovery, if any, comes from an
// optional upper-layer timeout-retransmit shim at the client ("Mobile IP
// delegates the task of detecting and re-transmitting lost datagrams to
// upper network layers").
//
// The two structural differences measured by the experiments:
//
//   - E5: the home agent is fixed, so forwarding load concentrates on
//     home stations instead of following the MH (no load balancing).
//   - E7: datagram losses during hand-off/inactivity reduce delivery
//     ratio, and timeout recovery costs latency.
package mobileip

import (
	"fmt"
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Config parameterizes a Mobile IP world.
type Config struct {
	Seed            int64
	NumMSS          int
	NumServers      int
	WiredLatency    netsim.LatencyModel
	WirelessLatency netsim.LatencyModel
	// WiredPairLatency, when set, overrides WiredLatency per host pair —
	// e.g. netsim.RingLatency, so the baseline pays the same
	// distance-dependent backbone costs as RDP on a ring topology (E12).
	WiredPairLatency func(from, to ids.NodeID) netsim.LatencyModel
	WirelessLoss     float64
	ServerProc       netsim.LatencyModel
	// RequestTimeout, when positive, enables the upper-layer retransmit
	// shim at mobile nodes.
	RequestTimeout time.Duration
	// Observer, when set, receives all network events.
	Observer netsim.Observer
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
	RequestsIssued   metrics.Counter
	RequestRetries   metrics.Counter
	ResultsDelivered metrics.Counter
	Duplicates       metrics.Counter
	Registrations    metrics.Counter
	Tunnels          metrics.Counter
	WirelessDrops    metrics.Counter
	ResultLatency    metrics.Histogram

	// TunnelLoad counts datagrams tunneled per station while acting as a
	// home agent — the E5 concentration measure.
	TunnelLoad map[ids.MSS]int64
}

// NewStats returns an initialized Stats.
func NewStats() *Stats {
	return &Stats{TunnelLoad: make(map[ids.MSS]int64)}
}

// World is the Mobile IP simulation world: stations double as foreign
// agents and (for their assigned MHs) home agents.
type World struct {
	cfg   Config
	Stats *Stats

	Kernel   *sim.Kernel
	Wired    *netsim.Wired
	Wireless *netsim.Wireless

	stations map[ids.MSS]*station
	servers  map[ids.Server]*mipServer
	mhs      map[ids.MH]*MobileNode

	mssList []ids.MSS
	home    map[ids.MH]ids.MSS // fixed home agent assignment
	loc     map[ids.MH]ids.MSS
	active  map[ids.MH]bool
}

// NewWorld builds a Mobile IP world.
func NewWorld(cfg Config) *World {
	if cfg.NumMSS < 1 {
		panic("mobileip: Config.NumMSS must be >= 1")
	}
	w := &World{
		cfg:      cfg,
		Stats:    NewStats(),
		Kernel:   sim.NewKernel(cfg.Seed),
		stations: make(map[ids.MSS]*station),
		servers:  make(map[ids.Server]*mipServer),
		mhs:      make(map[ids.MH]*MobileNode),
		home:     make(map[ids.MH]ids.MSS),
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
	// Plain IP has no ordering guarantee; the wired net runs without the
	// causal layer.
	w.Wired = netsim.NewWired(w.Kernel, members, netsim.WiredConfig{
		Latency:     cfg.WiredLatency,
		PairLatency: cfg.WiredPairLatency,
	}, cfg.Observer)
	w.Wireless = netsim.NewWireless(w.Kernel, netsim.WirelessConfig{
		Latency:   cfg.WirelessLatency,
		LossProb:  cfg.WirelessLoss,
		Reachable: func(mss ids.MSS, mh ids.MH) bool { return w.loc[mh] == mss && w.active[mh] },
		OnDrop:    func(netsim.Layer, netsim.EventKind) { w.Stats.WirelessDrops.Inc() },
	}, cfg.Observer)

	for _, id := range w.mssList {
		st := &station{id: id, w: w, careOf: make(map[ids.MH]ids.MSS)}
		w.stations[id] = st
		w.Wired.Register(id.Node(), st)
		w.Wireless.RegisterMSS(id, st)
	}
	for i := 1; i <= cfg.NumServers; i++ {
		id := ids.Server(i)
		s := &mipServer{id: id, w: w, rng: w.Kernel.RNG().Fork()}
		w.servers[id] = s
		w.Wired.Register(id.Node(), s)
	}
	return w
}

// StationList returns station identifiers in ascending order.
func (w *World) StationList() []ids.MSS {
	return append([]ids.MSS(nil), w.mssList...)
}

// AddMH creates a mobile node in the given cell with the given fixed
// home agent, and registers its initial care-of address.
func (w *World) AddMH(id ids.MH, cell, home ids.MSS) *MobileNode {
	if _, dup := w.mhs[id]; dup {
		panic(fmt.Sprintf("mobileip: duplicate MH %v", id))
	}
	if _, ok := w.stations[cell]; !ok {
		panic(fmt.Sprintf("mobileip: unknown cell %v", cell))
	}
	if _, ok := w.stations[home]; !ok {
		panic(fmt.Sprintf("mobileip: unknown home %v", home))
	}
	mn := &MobileNode{
		id:       id,
		w:        w,
		seen:     make(map[ids.RequestID]bool),
		issuedAt: make(map[ids.RequestID]sim.Time),
	}
	w.mhs[id] = mn
	w.home[id] = home
	w.loc[id] = cell
	w.active[id] = true
	mn.cell = cell
	w.Wireless.RegisterMH(id, mn)
	mn.register()
	return mn
}

// Home returns the MH's fixed home agent station.
func (w *World) Home(id ids.MH) ids.MSS { return w.home[id] }

// Node returns the mobile node handle for an MH added with AddMH, or
// nil if unknown.
func (w *World) Node(id ids.MH) *MobileNode { return w.mhs[id] }

// Migrate moves the MH; an active node re-registers its care-of address
// with its home agent via the new foreign agent. Datagrams tunneled to
// the old care-of address while the registration is in flight are lost.
func (w *World) Migrate(id ids.MH, cell ids.MSS) {
	mn, ok := w.mhs[id]
	if !ok {
		panic(fmt.Sprintf("mobileip: unknown MH %v", id))
	}
	if w.loc[id] == cell {
		return
	}
	w.loc[id] = cell
	mn.cell = cell
	if w.active[id] {
		mn.register()
	}
}

// SetActive toggles the node's activity; activation re-registers.
func (w *World) SetActive(id ids.MH, activeNow bool) {
	mn, ok := w.mhs[id]
	if !ok {
		panic(fmt.Sprintf("mobileip: unknown MH %v", id))
	}
	if w.active[id] == activeNow {
		return
	}
	w.active[id] = activeNow
	if activeNow {
		mn.register()
	}
}

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

// station is one MSS acting as foreign agent for visitors and home
// agent for the MHs whose home it is.
type station struct {
	id     ids.MSS
	w      *World
	careOf map[ids.MH]ids.MSS // populated only at the MH's home agent
}

// HandleMessage implements netsim.Handler.
func (s *station) HandleMessage(from ids.NodeID, m msg.Message) {
	switch m.Kind() {
	case msg.KindMIPRegister:
		v := m.(msg.MIPRegister)
		// Uplink leg: a visitor registering through us as foreign agent
		// -> relay to the home agent. Wired leg: we are the home agent.
		if from.Kind == ids.KindMH {
			s.w.Wired.Send(s.id.Node(), s.w.home[v.MH].Node(), v)
			return
		}
		s.careOf[v.MH] = v.CareOf
		s.w.Stats.Registrations.Inc()
	case msg.KindRequest:
		// Foreign agent: forward the visitor's request, read through its
		// leg (it may be shown as a borrowed view), to the server.
		v, _ := msg.LegOf(m)
		s.w.Wired.Send(s.id.Node(), v.Server.Node(),
			msg.MIPData{MH: v.Req.Origin, Req: v.Req, Payload: v.Payload})
	case msg.KindMIPData:
		v := m.(msg.MIPData)
		// We are the home agent for this MH: tunnel to the registered
		// care-of address; without one the datagram is dropped.
		co, ok := s.careOf[v.MH]
		if !ok {
			return
		}
		s.w.Stats.Tunnels.Inc()
		s.w.Stats.TunnelLoad[s.id]++
		if co == s.id {
			s.deliver(msg.MIPTunnel(v))
			return
		}
		s.w.Wired.Send(s.id.Node(), co.Node(), msg.MIPTunnel(v))
	case msg.KindMIPTunnel:
		s.deliver(m.(msg.MIPTunnel))
	}
}

// deliver makes the final wireless hop; the frame is silently lost if
// the MH has moved on or sleeps — no agent retries (§4).
func (s *station) deliver(v msg.MIPTunnel) {
	s.w.Wireless.SendDownlink(s.id, v.MH,
		msg.ResultDeliver{Req: v.Req, Payload: v.Payload})
}

// mipServer answers MIPData requests; replies are routed to the MH's
// home address (its home agent station), exactly as IP routing would.
type mipServer struct {
	id  ids.Server
	w   *World
	rng *sim.RNG
}

// HandleMessage implements netsim.Handler.
func (s *mipServer) HandleMessage(from ids.NodeID, m msg.Message) {
	v, ok := m.(msg.MIPData)
	if !ok {
		return
	}
	delay := s.w.cfg.ServerProc.Sample(s.rng)
	s.w.Kernel.Defer(delay, func() {
		reply := append([]byte("re:"), v.Payload...)
		s.w.Wired.Send(s.id.Node(), s.w.home[v.MH].Node(),
			msg.MIPData{MH: v.MH, Req: v.Req, Payload: reply})
	})
}

// MobileNode is the Mobile IP client.
type MobileNode struct {
	id       ids.MH
	w        *World
	cell     ids.MSS
	nextSeq  uint32
	seen     map[ids.RequestID]bool
	issuedAt map[ids.RequestID]sim.Time
}

// ID returns the node identifier.
func (mn *MobileNode) ID() ids.MH { return mn.id }

// Seen reports whether the result of req was received.
func (mn *MobileNode) Seen(req ids.RequestID) bool { return mn.seen[req] }

// register sends a care-of registration through the current foreign
// agent. Registration beacons ride the reliable control channel, like
// RDP's greets.
func (mn *MobileNode) register() {
	mn.w.Wireless.SendUplink(mn.id, mn.cell, msg.MIPRegister{MH: mn.id, CareOf: mn.cell})
}

// IssueRequest sends a request datagram toward the server via the
// current foreign agent and returns its identifier. With RequestTimeout
// set, the upper-layer shim retransmits until the reply arrives.
func (mn *MobileNode) IssueRequest(server ids.Server, payload []byte) ids.RequestID {
	mn.nextSeq++
	req := ids.RequestID{Origin: mn.id, Seq: mn.nextSeq}
	mn.issuedAt[req] = mn.w.Kernel.Now()
	mn.w.Stats.RequestsIssued.Inc()
	mn.send(msg.Request{Req: req, Server: server, Payload: payload})
	if mn.w.cfg.RequestTimeout > 0 {
		mn.scheduleRetry(msg.Request{Req: req, Server: server, Payload: payload})
	}
	return req
}

func (mn *MobileNode) send(m msg.Request) {
	if !mn.w.active[mn.id] {
		return // a sleeping node cannot transmit; the retry shim re-fires
	}
	mn.w.Wireless.SendUplink(mn.id, mn.cell, m)
}

func (mn *MobileNode) scheduleRetry(m msg.Request) {
	mn.w.Kernel.Defer(mn.w.cfg.RequestTimeout, func() {
		if mn.seen[m.Req] {
			return
		}
		if mn.w.active[mn.id] {
			mn.w.Stats.RequestRetries.Inc()
			mn.send(m)
		}
		mn.scheduleRetry(m)
	})
}

// HandleMessage implements netsim.Handler for the node's radio.
func (mn *MobileNode) HandleMessage(from ids.NodeID, m msg.Message) {
	r, ok := msg.LegOf(m)
	if !ok || r.Kind != msg.KindResultDeliver {
		return
	}
	if mn.seen[r.Req] {
		mn.w.Stats.Duplicates.Inc()
		return
	}
	mn.seen[r.Req] = true
	mn.w.Stats.ResultsDelivered.Inc()
	if at, known := mn.issuedAt[r.Req]; known {
		mn.w.Stats.ResultLatency.Observe(time.Duration(mn.w.Kernel.Now() - at))
	}
}
