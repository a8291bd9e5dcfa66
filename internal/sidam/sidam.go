// Package sidam implements the paper's motivating application (§1): the
// SIDAM distributed traffic-information service for São Paulo. Traffic
// data is partitioned by city region across a network of Traffic
// Information Servers (TIS) connected in a ring; an operation arriving
// at any TIS is routed hop-by-hop to the region's owner — the
// "time-consuming data location and retrieval protocols among the
// servers" that motivate long request processing times, which in turn
// motivate RDP.
//
// The package exposes the three client operations the paper names:
//
//   - query: read a region's congestion reading;
//   - update: write a reading (the Traffic Engineering Company staff
//     feeding the system);
//   - subscribe: be notified when a region's congestion changes by at
//     least a threshold since subscription time.
//
// All three ride RDP: the client payload is encoded with this package's
// Encode* helpers into an ordinary RDP request, and results (including
// asynchronous subscription notifications) come back through the
// client's proxy. A subscription is answered by its first matching
// change — re-subscribing after each notification yields a continuous
// feed, matching RDP's one-result-per-request life-cycle.
package sidam

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/rdpcore"
	"repro/internal/sim"
)

// Op is a client operation code.
type Op uint8

// Client operations (§1).
const (
	OpQuery Op = iota + 1
	OpUpdate
	OpSubscribe
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpQuery:
		return "query"
	case OpUpdate:
		return "update"
	case OpSubscribe:
		return "subscribe"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Reading is one region's traffic state.
type Reading struct {
	Region     uint32
	Congestion int32 // 0..100
	Stamp      int64 // virtual-time nanoseconds of the last update
}

// Request payload codec errors.
var ErrBadPayload = errors.New("sidam: malformed payload")

// EncodeQuery builds the payload of a query request.
func EncodeQuery(region uint32) []byte {
	return encodeOp(OpQuery, region, 0)
}

// EncodeUpdate builds the payload of an update request.
func EncodeUpdate(region uint32, congestion int32) []byte {
	return encodeOp(OpUpdate, region, congestion)
}

// EncodeSubscribe builds the payload of a subscription request: notify
// when the region's congestion changes by at least threshold.
func EncodeSubscribe(region uint32, threshold int32) []byte {
	return encodeOp(OpSubscribe, region, threshold)
}

func encodeOp(op Op, region uint32, value int32) []byte {
	b := make([]byte, 9)
	b[0] = byte(op)
	binary.BigEndian.PutUint32(b[1:], region)
	binary.BigEndian.PutUint32(b[5:], uint32(value))
	return b
}

// SubscribeTopic is a rdpcore.Config.GroupTopic classifier for SIDAM
// workloads: subscription requests name their region as the topic, so
// every subscriber to a region in the same cell shares one group proxy
// (identical payloads, identical notification stream). Queries and
// updates are declined and keep paper-faithful private proxies — their
// results are caller-specific.
func SubscribeTopic(_ ids.Server, payload []byte) (uint32, bool) {
	op, region, _, err := DecodeOp(payload)
	if err != nil || op != OpSubscribe {
		return 0, false
	}
	return region, true
}

// DecodeOp parses a client payload.
func DecodeOp(b []byte) (op Op, region uint32, value int32, err error) {
	if len(b) != 9 {
		return 0, 0, 0, ErrBadPayload
	}
	op = Op(b[0])
	if op != OpQuery && op != OpUpdate && op != OpSubscribe {
		return 0, 0, 0, ErrBadPayload
	}
	region = binary.BigEndian.Uint32(b[1:])
	value = int32(binary.BigEndian.Uint32(b[5:]))
	return op, region, value, nil
}

// EncodeReading builds a result payload carrying a reading.
func EncodeReading(r Reading) []byte {
	b := make([]byte, 16)
	binary.BigEndian.PutUint32(b[0:], r.Region)
	binary.BigEndian.PutUint32(b[4:], uint32(r.Congestion))
	binary.BigEndian.PutUint64(b[8:], uint64(r.Stamp))
	return b
}

// DecodeReading parses a result payload.
func DecodeReading(b []byte) (Reading, error) {
	if len(b) != 16 {
		return Reading{}, ErrBadPayload
	}
	return Reading{
		Region:     binary.BigEndian.Uint32(b[0:]),
		Congestion: int32(binary.BigEndian.Uint32(b[4:])),
		Stamp:      int64(binary.BigEndian.Uint64(b[8:])),
	}, nil
}

// Stats aggregates application-level measurements.
type Stats struct {
	Queries         metrics.Counter
	Updates         metrics.Counter
	Subscriptions   metrics.Counter
	Notifications   metrics.Counter
	Multicasts      metrics.Counter // group messages serialized at owners
	GroupDeliveries metrics.Counter // group messages answered to mailboxes
	MailboxParks    metrics.Counter
	CacheHits       metrics.Counter // remote queries served from a fresh local cache
	CacheMisses     metrics.Counter // remote queries that had to route to the owner
	RemoteOps       metrics.Counter // operations that needed inter-TIS routing
	HopsTotal       metrics.Counter // inter-TIS hops traversed
}

// Config parameterizes the TIS network.
type Config struct {
	// Regions is the number of city regions; region r is owned by TIS
	// 1 + (r mod NumTIS).
	Regions uint32
	// LocalProc models per-operation processing at the owning TIS.
	LocalProc netsim.LatencyModel
	// HopProc models per-hop forwarding work between TISes (on top of
	// wired latency).
	HopProc netsim.LatencyModel
	// InitialCongestion seeds each region's reading (drawn uniformly in
	// [0, InitialCongestion]); zero seeds everything at 0.
	InitialCongestion int32
	// CacheTTL, when positive, lets a non-owning TIS answer queries from
	// a local cache of remote readings no older than the TTL — the
	// "several forms and degrees of accuracy" trade of §1. Zero disables
	// caching (every remote query routes to the owner).
	CacheTTL time.Duration
}

// DefaultConfig returns a network of 64 regions with 20ms local
// processing and 5ms per-hop forwarding work.
func DefaultConfig() Config {
	return Config{
		Regions:           64,
		LocalProc:         netsim.Constant(20 * time.Millisecond),
		HopProc:           netsim.Constant(5 * time.Millisecond),
		InitialCongestion: 60,
	}
}

// Network is the SIDAM TIS overlay installed on an RDP world's servers.
type Network struct {
	cfg   Config
	world *rdpcore.World
	Stats *Stats
	tises map[ids.Server]*TIS
	order []ids.Server
}

// Install builds one TIS per server of the world and replaces the
// world's generic application servers with them. The world must have
// been created with at least one server.
func Install(world *rdpcore.World, cfg Config) *Network {
	if cfg.Regions == 0 {
		panic("sidam: Config.Regions must be > 0")
	}
	if cfg.LocalProc == nil {
		cfg.LocalProc = netsim.Constant(0)
	}
	if cfg.HopProc == nil {
		cfg.HopProc = netsim.Constant(0)
	}
	n := &Network{cfg: cfg, world: world, Stats: &Stats{}, tises: make(map[ids.Server]*TIS)}
	for id := range world.Servers {
		n.order = append(n.order, id)
	}
	if len(n.order) == 0 {
		panic("sidam: world has no servers to install TISes on")
	}
	// Deterministic ring order.
	for i := 0; i < len(n.order); i++ {
		for j := i + 1; j < len(n.order); j++ {
			if n.order[j] < n.order[i] {
				n.order[i], n.order[j] = n.order[j], n.order[i]
			}
		}
	}
	rng := world.Kernel.RNG().Fork()
	for idx, id := range n.order {
		t := &TIS{
			id:      id,
			net:     n,
			index:   idx,
			store:   make(map[uint32]*Reading),
			pending: make(map[uint64]pendingOp),
		}
		n.tises[id] = t
	}
	for r := uint32(0); r < cfg.Regions; r++ {
		owner := n.order[int(r)%len(n.order)]
		c := int32(0)
		if cfg.InitialCongestion > 0 {
			c = int32(rng.Intn(int(cfg.InitialCongestion) + 1))
		}
		n.tises[owner].store[r] = &Reading{Region: r, Congestion: c}
	}
	for id, t := range n.tises {
		world.ReplaceServer(id, t)
	}
	return n
}

// Owner returns the TIS owning a region.
func (n *Network) Owner(region uint32) ids.Server {
	return n.order[int(region)%len(n.order)]
}

// AnyTIS returns the lowest-numbered TIS (a convenient client target:
// any TIS accepts any operation and routes it).
func (n *Network) AnyTIS() ids.Server { return n.order[0] }

// TISList returns the ring order of servers.
func (n *Network) TISList() []ids.Server {
	return append([]ids.Server(nil), n.order...)
}

// ReadingAt returns the owner's current reading for a region (test and
// experiment hook; bypasses the network).
func (n *Network) ReadingAt(region uint32) (Reading, bool) {
	t := n.tises[n.Owner(region)]
	r, ok := t.store[region]
	if !ok {
		return Reading{}, false
	}
	return *r, true
}

// ringDistance computes hop count and direction (+1/-1) of the shortest
// ring path from index a to index b over n nodes.
func ringDistance(a, b, n int) (hops int, dir int) {
	if a == b {
		return 0, +1
	}
	fwd := (b - a + n) % n
	bwd := (a - b + n) % n
	if fwd <= bwd {
		return fwd, +1
	}
	return bwd, -1
}

// pendingOp tracks a routed operation awaiting its TISReply.
type pendingOp struct {
	proxy ids.ProxyID
	req   ids.RequestID
}

// subscription is a registered threshold watch at the owning TIS.
type subscription struct {
	proxy     ids.ProxyID
	req       ids.RequestID
	region    uint32
	threshold int32
	baseline  int32 // congestion at registration time
}

// TIS is one Traffic Information Server.
type TIS struct {
	id        ids.Server
	net       *Network
	index     int
	store     map[uint32]*Reading
	cache     map[uint32]cachedReading
	subs      []subscription
	pending   map[uint64]pendingOp
	groups    map[uint32]*groupInfo
	mailboxes map[ids.MH]*mailbox
	nextQID   uint64
	rngInit   bool
	rng       *sim.RNG
}

// ID returns the server identifier the TIS answers as.
func (t *TIS) ID() ids.Server { return t.id }

func (t *TIS) kernel() sim.Scheduler { return t.net.world.Kernel }

func (t *TIS) ensureRNG() *sim.RNG {
	if !t.rngInit {
		t.rng = t.kernel().RNG().Fork()
		t.rngInit = true
	}
	return t.rng
}

// HandleMessage implements netsim.Handler.
func (t *TIS) HandleMessage(from ids.NodeID, m msg.Message) {
	if m.Kind() == msg.KindServerRequest {
		// A client operation, read through its leg: a station sends it
		// as a borrowed view.
		l, _ := msg.LegOf(m)
		t.handleClient(l.ServerRequest())
		return
	}
	switch v := m.(type) {
	case msg.TISQuery:
		t.handleTISQuery(v)
	case msg.TISReply:
		t.handleTISReply(v)
	case msg.TISDeliver:
		t.handleTISDeliver(v)
	case msg.ServerAck:
		// Application-level ack; nothing to clean up.
	}
}

// handleClient decodes a client operation arriving through a proxy and
// either executes it locally or routes it toward the owner.
func (t *TIS) handleClient(v msg.ServerRequest) {
	// The multicast operations carry their own payload shapes.
	if len(v.Payload) > 0 {
		switch Op(v.Payload[0]) {
		case OpMailbox:
			t.handleMailboxOp(v)
			return
		case OpMulticast:
			t.handleMulticastOp(v)
			return
		}
	}
	op, region, value, err := DecodeOp(v.Payload)
	if err != nil || region >= t.net.cfg.Regions {
		// Malformed or out-of-range: answer with an empty reading so the
		// client is not left hanging.
		t.reply(v.Proxy, v.Req, Reading{Region: region, Congestion: -1})
		return
	}
	switch op {
	case OpQuery:
		t.net.Stats.Queries.Inc()
	case OpUpdate:
		t.net.Stats.Updates.Inc()
	case OpSubscribe:
		t.net.Stats.Subscriptions.Inc()
	}
	owner := t.net.Owner(region)
	if owner == t.id {
		delay := t.net.cfg.LocalProc.Sample(t.ensureRNG())
		t.kernel().Defer(delay, func() { t.execute(op, region, value, v.Proxy, v.Req) })
		return
	}
	if op == OpQuery && t.net.cfg.CacheTTL > 0 {
		if c, ok := t.cache[region]; ok &&
			time.Duration(t.kernel().Now()-c.fetchedAt) <= t.net.cfg.CacheTTL {
			// Serve the (possibly slightly stale) cached reading locally:
			// a lower "degree of accuracy" for a much cheaper answer (§1).
			t.net.Stats.CacheHits.Inc()
			delay := t.net.cfg.LocalProc.Sample(t.ensureRNG())
			r := c.Reading
			t.kernel().Defer(delay, func() { t.reply(v.Proxy, v.Req, r) })
			return
		}
		t.net.Stats.CacheMisses.Inc()
	}
	t.net.Stats.RemoteOps.Inc()
	t.nextQID++
	qid := t.nextQID
	t.pending[qid] = pendingOp{proxy: v.Proxy, req: v.Req}
	q := msg.TISQuery{
		QID: qid, Origin: t.id, Op: tisOp(op), Region: region, Value: value,
		Proxy: v.Proxy, Req: v.Req,
	}
	t.forward(q)
}

func tisOp(op Op) msg.TISOp {
	switch op {
	case OpUpdate:
		return msg.TISOpUpdate
	case OpSubscribe:
		return msg.TISOpSubscribe
	default:
		return msg.TISOpQuery
	}
}

// forward sends a TISQuery one hop along the shortest ring direction.
func (t *TIS) forward(q msg.TISQuery) {
	ownerIdx := int(q.Region) % len(t.net.order)
	_, dir := ringDistance(t.index, ownerIdx, len(t.net.order))
	nextIdx := (t.index + dir + len(t.net.order)) % len(t.net.order)
	next := t.net.order[nextIdx]
	q.Hops++
	t.net.Stats.HopsTotal.Inc()
	delay := t.net.cfg.HopProc.Sample(t.ensureRNG())
	t.kernel().Defer(delay, func() {
		t.net.world.Wired.Send(t.id.Node(), next.Node(), q)
	})
}

// handleTISQuery either executes a routed operation (owner) or forwards
// it another hop.
func (t *TIS) handleTISQuery(q msg.TISQuery) {
	if t.net.Owner(q.Region) != t.id {
		t.forward(q)
		return
	}
	delay := t.net.cfg.LocalProc.Sample(t.ensureRNG())
	t.kernel().Defer(delay, func() {
		switch q.Op {
		case msg.TISOpQuery:
			r := t.readingOf(q.Region)
			t.sendReply(q, r)
		case msg.TISOpUpdate:
			r := t.applyUpdate(q.Region, q.Value)
			t.sendReply(q, r)
		case msg.TISOpSubscribe:
			t.addSubscription(q.Proxy, q.Req, q.Region, q.Value)
			// Subscriptions are answered by their first notification;
			// no synchronous reply.
		case msg.TISOpMailbox:
			t.parkMailbox(q.Proxy, q.Req)
		case msg.TISOpMulticast:
			t.execMulticast(q.Region, q.Data, q.Proxy, q.Req)
		}
	})
}

// sendReply answers a routed query back to its origin TIS.
func (t *TIS) sendReply(q msg.TISQuery, r Reading) {
	t.net.world.Wired.Send(t.id.Node(), q.Origin.Node(), msg.TISReply{
		QID: q.QID, Region: r.Region, Value: r.Congestion, Stamp: r.Stamp, Hops: q.Hops,
	})
}

// handleTISReply completes a routed operation toward the client's proxy
// and refreshes the local cache of the remote reading.
func (t *TIS) handleTISReply(v msg.TISReply) {
	p, ok := t.pending[v.QID]
	if !ok {
		return
	}
	delete(t.pending, v.QID)
	r := Reading{Region: v.Region, Congestion: v.Value, Stamp: v.Stamp}
	if t.net.cfg.CacheTTL > 0 && r.Congestion >= 0 {
		if t.cache == nil {
			t.cache = make(map[uint32]cachedReading)
		}
		t.cache[v.Region] = cachedReading{Reading: r, fetchedAt: t.kernel().Now()}
	}
	t.reply(p.proxy, p.req, r)
}

// cachedReading is one cached remote reading with its fetch time.
type cachedReading struct {
	Reading
	fetchedAt sim.Time
}

// execute runs an operation at the owning TIS on behalf of a proxy.
func (t *TIS) execute(op Op, region uint32, value int32, proxy ids.ProxyID, req ids.RequestID) {
	switch op {
	case OpQuery:
		t.reply(proxy, req, t.readingOf(region))
	case OpUpdate:
		t.reply(proxy, req, t.applyUpdate(region, value))
	case OpSubscribe:
		t.addSubscription(proxy, req, region, value)
	}
}

func (t *TIS) readingOf(region uint32) Reading {
	if r, ok := t.store[region]; ok {
		return *r
	}
	return Reading{Region: region, Congestion: -1}
}

// applyUpdate stores a new congestion value and fires any subscriptions
// whose threshold the change crosses.
func (t *TIS) applyUpdate(region uint32, value int32) Reading {
	r, ok := t.store[region]
	if !ok {
		r = &Reading{Region: region}
		t.store[region] = r
	}
	r.Congestion = value
	r.Stamp = int64(t.kernel().Now())
	fired := t.subs[:0]
	for _, s := range t.subs {
		if s.region == region && abs32(value-s.baseline) >= s.threshold {
			t.net.Stats.Notifications.Inc()
			t.reply(s.proxy, s.req, *r)
			continue // one-shot: consumed by its first notification
		}
		fired = append(fired, s)
	}
	t.subs = fired
	return *r
}

func (t *TIS) addSubscription(proxy ids.ProxyID, req ids.RequestID, region uint32, threshold int32) {
	t.subs = append(t.subs, subscription{
		proxy: proxy, req: req, region: region,
		threshold: threshold, baseline: t.readingOf(region).Congestion,
	})
}

// reply sends a ServerResult to the proxy that issued the request.
func (t *TIS) reply(proxy ids.ProxyID, req ids.RequestID, r Reading) {
	t.net.world.Wired.Send(t.id.Node(), proxy.Host.Node(), msg.ServerResult{
		Proxy: proxy, Req: req, Payload: EncodeReading(r),
	})
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}
