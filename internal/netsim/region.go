package netsim

import (
	"fmt"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
)

// CrossFrame is one wired message leaving its region: the payload plus
// the absolute virtual instant it reaches the destination host. The
// parallel coordinator (internal/psim) carries frames between region
// kernels and injects them at Arrival, merged in deterministic
// (arrival, source region, sequence) order. A leg-kind message
// crosses as a leg, by value.
type CrossFrame struct {
	From, To ids.NodeID
	Env      msg.Envelope
	Arrival  sim.Time
}

// RegionLink is the wired transport of one region in a partitioned
// world. Traffic between two hosts of the same region goes through the
// region's own Wired substrate untouched (causal order, queue bounds,
// the lot). Traffic to a host in another region is turned into a
// CrossFrame: the latency is sampled here, on the sender's kernel, and
// the frame is handed to the coordinator, which delivers it on the
// destination region's kernel at the sampled arrival instant.
//
// Conservative synchronization leans on the emitted latency never being
// below the coordinator's lookahead — Send enforces that invariant and
// panics on a violation, because a short frame would have to land inside
// a window the destination region may already have finished.
type RegionLink struct {
	k     sim.Scheduler
	local *Wired
	// localSet marks the hosts simulated by this region; everything else
	// is remote.
	localSet map[ids.NodeID]bool
	// latency and pair mirror WiredConfig.Latency/PairLatency for the
	// cross-region links; sampling draws from this region's own stream.
	latency LatencyModel
	pair    func(from, to ids.NodeID) LatencyModel
	rng     *sim.RNG
	// lookahead is the coordinator's window width; every cross-region
	// latency sample must be >= it.
	lookahead sim.Time
	emit      func(CrossFrame)
	obs       Observer
	handlers  map[ids.NodeID]Handler
	// in is the envelope of the inbound frame being delivered: Deliver is
	// handed its frame by value, so the view its handler is shown points
	// here.
	in msg.Envelope
	// lastOut enforces per-pair FIFO on outbound cross links: a frame
	// never arrives before an earlier frame of the same directed pair
	// (physical links do not reorder). With a constant latency model the
	// clamp never fires; with a variable one it removes the same-pair
	// overtakes the intra-region causal group would have prevented.
	lastOut map[[2]ids.NodeID]sim.Time
}

// RegionLinkConfig parameterizes NewRegionLink.
type RegionLinkConfig struct {
	// Local is the region's intra-region substrate; LocalMembers its
	// membership (the subset of the global host set this region owns).
	Local        *Wired
	LocalMembers []ids.NodeID
	// Latency and PairLatency model the cross-region wired links, with
	// the same precedence rule as WiredConfig.
	Latency     LatencyModel
	PairLatency func(from, to ids.NodeID) LatencyModel
	// Lookahead is the conservative window width. Every sampled
	// cross-region latency must be at least this long.
	Lookahead time.Duration
	// Emit receives each outbound cross-region frame. It runs on the
	// sending region's kernel (inside a window), so it must only record
	// the frame — typically appending to the region's outbox for the
	// coordinator to merge at the next barrier.
	Emit func(CrossFrame)
}

// NewRegionLink wraps a region's Wired substrate into the partitioned
// world's wired transport. obs may be nil. A cross-region frame is never
// dropped, so the link needs no drop hook of its own.
func NewRegionLink(k sim.Scheduler, cfg RegionLinkConfig, obs Observer) *RegionLink {
	if cfg.Local == nil || cfg.Emit == nil {
		panic("netsim: RegionLink needs a local substrate and an emit hook")
	}
	if cfg.Lookahead <= 0 {
		panic("netsim: RegionLink lookahead must be positive")
	}
	if cfg.Latency == nil {
		cfg.Latency = Constant(0)
	}
	l := &RegionLink{
		k:         k,
		local:     cfg.Local,
		localSet:  make(map[ids.NodeID]bool, len(cfg.LocalMembers)),
		latency:   cfg.Latency,
		pair:      cfg.PairLatency,
		rng:       k.RNG().Fork(),
		lookahead: sim.Time(cfg.Lookahead),
		emit:      cfg.Emit,
		obs:       obs,
		handlers:  make(map[ids.NodeID]Handler),
		lastOut:   make(map[[2]ids.NodeID]sim.Time),
	}
	for _, n := range cfg.LocalMembers {
		l.localSet[n] = true
	}
	return l
}

// Register installs the handler for a local host. Remote hosts are the
// other regions' business; registering one here is a partitioning bug.
func (l *RegionLink) Register(n ids.NodeID, h Handler) {
	if !l.localSet[n] {
		panic(fmt.Sprintf("netsim: %v is not a member of this region", n))
	}
	l.handlers[n] = h
	l.local.Register(n, h)
}

// Send routes m: intra-region through the local substrate, inter-region
// as a CrossFrame with a latency sampled now.
func (l *RegionLink) Send(from, to ids.NodeID, m msg.Message) {
	if l.localSet[to] {
		l.local.Send(from, to, m)
		return
	}
	l.cross(from, to, m)
}

// cross stamps an outbound cross-region frame, which keeps m's envelope,
// with its arrival and emits it.
func (l *RegionLink) cross(from, to ids.NodeID, m msg.Message) {
	f := CrossFrame{From: from, To: to, Env: msg.EnvelopeOf(m)}
	l.observe(EventSent, from, to, m)
	lat := l.sampleLatency(from, to)
	if sim.Time(lat) < l.lookahead {
		panic(fmt.Sprintf("netsim: cross-region latency %v below lookahead %v (%v -> %v)",
			lat, time.Duration(l.lookahead), from, to))
	}
	arrival := l.k.Now() + sim.Time(lat)
	pair := [2]ids.NodeID{from, to}
	if last := l.lastOut[pair]; arrival < last {
		arrival = last
	}
	l.lastOut[pair] = arrival
	f.Arrival = arrival
	l.emit(f)
}

// Deliver hands an inbound cross-region frame to its destination host.
// The coordinator calls it on the destination region's kernel at
// f.Arrival. Cross-region frames bypass the local causal group: with the
// partitioned topologies' latency models (cross links no shorter than
// any path through a third host), timestamp order already is causal
// order, which the coordinator's deterministic merge preserves.
func (l *RegionLink) Deliver(f CrossFrame) {
	h, ok := l.handlers[f.To]
	if !ok {
		panic(fmt.Sprintf("netsim: cross-region frame for unregistered host %v", f.To))
	}
	l.in = f.Env
	m := l.in.Message()
	l.observe(EventDelivered, f.From, f.To, m)
	h.HandleMessage(f.From, m)
}

// Local reports whether the host is simulated by this region.
func (l *RegionLink) Local(n ids.NodeID) bool { return l.localSet[n] }

func (l *RegionLink) sampleLatency(from, to ids.NodeID) time.Duration {
	lat := l.latency
	if l.pair != nil {
		if pl := l.pair(from, to); pl != nil {
			lat = pl
		}
	}
	return lat.Sample(l.rng)
}

// observe reports a cross-region frame's event.
func (l *RegionLink) observe(kind EventKind, from, to ids.NodeID, m msg.Message) {
	if l.obs != nil {
		l.obs(l.k.Now(), LayerWired, kind, from, to, m)
	}
}

var _ WiredTransport = (*RegionLink)(nil)
