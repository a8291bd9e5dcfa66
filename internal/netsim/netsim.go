// Package netsim models the two communication substrates of the paper's
// system (§2) on top of the discrete-event kernel:
//
//   - Wired: the static network connecting MSSs and servers. It is
//     reliable and, per assumption 1, delivers messages among static
//     hosts in causal order (implemented with the causal package; can be
//     downgraded to arrival order for the E2 ablation).
//   - Wireless: the per-cell link between an MSS and the mobile hosts
//     currently in its cell. Delivery requires the MH to be in the cell
//     and active at delivery time, and may additionally fail with a
//     configurable loss probability.
//
// The package is protocol-agnostic: it moves msg.Message values between
// ids.NodeID addresses, reports every event to an optional Observer, which
// the trace layer hooks into, and every drop to an optional DropHook,
// which the metrics do.
package netsim

import (
	"fmt"
	"time"

	"repro/internal/causal"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/wtp"
)

// Handler consumes messages delivered to a node: its one door.
//
// What crosses a door — HandleMessage here, a transport's Send,
// SendDownlink or SendUplink, an Observer — is borrowed for the call. A
// message of one of the twelve leg kinds (msg.Leg) crosses as a msg.View
// of a leg the caller owns: the sender's outgoing slot, or the frame
// record a substrate delivers from, which it recycles once the handler
// returns. A box of a leg kind is accepted at every door as well. Whoever
// keeps a message past the call keeps a copy (msg.EnvelopeOf, or msg.Keep
// for a box); a sender writes its next leg into the same slot, which is
// never cleared.
type Handler interface {
	HandleMessage(from ids.NodeID, m msg.Message)
}

// WiredTransport is the interface the protocol layer needs from the
// static network. Wired implements it over the simulation kernel;
// tcpnet implements it over real TCP sockets. Send borrows m (see
// Handler): it copies a view's leg before anything else runs.
type WiredTransport interface {
	Send(from, to ids.NodeID, m msg.Message)
	Register(n ids.NodeID, h Handler)
}

// WirelessTransport is the interface the protocol layer needs from the
// per-cell radio links. Both sends borrow m as WiredTransport.Send does.
type WirelessTransport interface {
	SendDownlink(from ids.MSS, to ids.MH, m msg.Message)
	SendUplink(from ids.MH, to ids.MSS, m msg.Message)
	RegisterMH(mh ids.MH, h Handler)
	RegisterMSS(mss ids.MSS, h Handler)
}

var (
	_ WiredTransport    = (*Wired)(nil)
	_ WirelessTransport = (*Wireless)(nil)
)

// HandlerFunc adapts a function to the Handler interface; f borrows what
// it is handed, as any Handler does.
type HandlerFunc func(from ids.NodeID, m msg.Message)

// HandleMessage calls f.
func (f HandlerFunc) HandleMessage(from ids.NodeID, m msg.Message) { f(from, m) }

// Layer identifies which substrate carried a message.
type Layer uint8

// Substrate layers.
const (
	LayerWired Layer = iota + 1
	LayerWireless
)

// String returns "wired" or "wireless".
func (l Layer) String() string {
	if l == LayerWired {
		return "wired"
	}
	return "wireless"
}

// EventKind classifies observer callbacks.
type EventKind uint8

// Observer event kinds. Drops carry a reason: EventDroppedUnreachable
// when the destination could not receive (an MH that left the cell or
// turned inactive, a crashed static host, an unregistered node),
// EventDroppedLoss for random loss or an injected link fault, and
// EventShed when a bounded link queue was full (overload protection).
// The bare EventDropped remains for unclassified drops.
const (
	EventSent EventKind = iota + 1
	EventDelivered
	EventDropped
	EventDroppedUnreachable
	EventDroppedLoss
	EventShed
)

// String names the event kind.
func (e EventKind) String() string {
	switch e {
	case EventSent:
		return "sent"
	case EventDelivered:
		return "delivered"
	case EventDroppedUnreachable:
		return "dropped-unreachable"
	case EventDroppedLoss:
		return "dropped-loss"
	case EventShed:
		return "shed"
	default:
		return "dropped"
	}
}

// IsDrop reports whether the event is a drop of any reason.
func (e EventKind) IsDrop() bool {
	return e == EventDropped || e == EventDroppedUnreachable || e == EventDroppedLoss ||
		e == EventShed
}

// Observer receives a callback for every message event on either layer.
// A substrate with a nil Observer builds no event: each report costs one
// nil check.
//
// The message is borrowed: it is valid for the call only. A leg is shown
// as a msg.View of the frame record's leg, and a link-layer frame (an ARQ
// LinkFrame or LinkAck, a windowed WtpData or WtpAck) by a pointer into
// the record that carries it; the substrate recycles the record once the
// report returns. An Observer may read the message during the call —
// its Kind, its String, msg.WireSize, msg.LegOf — for nothing; one that
// keeps it past the call keeps msg.Keep(m), which boxes what was shown.
type Observer func(at sim.Time, layer Layer, kind EventKind, from, to ids.NodeID, m msg.Message)

// DropHook is told of every frame a substrate drops or sheds, with or
// without an Observer: the owner's loss accounting.
type DropHook func(layer Layer, kind EventKind)

// Reachability reports whether mh can currently receive from (or be
// heard by) the station mss: it must be located in mss's cell and be
// active. The world model owns this state.
type Reachability func(mss ids.MSS, mh ids.MH) bool

// Sequencer intercepts message deliveries for adversarial-order testing
// (see internal/explore). When configured, a transport hands every
// delivery to the sequencer as a fire closure instead of scheduling it
// on the clock; the sequencer decides when (and in what order) each one
// fires. Gating that belongs to delivery time (wireless reachability,
// random loss) runs inside the closure, so it reflects the world state
// at fire time.
type Sequencer interface {
	Offer(layer Layer, from, to ids.NodeID, fire func())
}

// LinkFault is the fault decision for one physical transmission attempt
// on a wired link: lose the frame, deliver an extra copy, and/or add
// extra latency (which also reorders the frame against its neighbours).
type LinkFault struct {
	Drop      bool
	Duplicate bool
	Delay     time.Duration
}

// FaultHook decides faults on the wired substrate. It is consulted once
// per physical transmission attempt — including ARQ retransmissions and
// ack frames — so loss probabilities apply per attempt, as on a real
// link. internal/faults provides the standard seeded implementation.
type FaultHook interface {
	OnWired(from, to ids.NodeID) LinkFault
}

// WiredConfig parameterizes the wired network.
type WiredConfig struct {
	// Latency models per-message delay between static hosts.
	Latency LatencyModel
	// Causal enables causal-order delivery (paper assumption 1). When
	// false, messages are handed up in raw arrival order (E2 ablation).
	Causal bool
	// Seq, when set, sequences deliveries adversarially instead of by
	// latency (testing hook; see Sequencer). The sequencer path bypasses
	// Faults, ARQ and Down.
	Seq Sequencer
	// PairLatency, when set, overrides Latency per directed host pair —
	// e.g. distance-dependent delays over a metropolitan ring topology
	// (see RingLatency). Pairs for which it returns nil fall back to
	// Latency.
	PairLatency func(from, to ids.NodeID) LatencyModel
	// Faults, when set, injects per-attempt link faults. Without ARQ a
	// dropped frame is simply lost (and, under Causal, permanently wedges
	// all causally-later messages at the destination — the failure mode
	// the E10 ablation demonstrates).
	Faults FaultHook
	// ARQ enables the link-layer retransmission protocol that makes the
	// wired network reliable again under Faults and crashes.
	ARQ ARQConfig
	// Down, when set, reports that a static member is currently crashed.
	// Frames arriving at a down member are dropped; under ARQ they stay
	// un-acked and retransmit until the member restarts. Link-layer ARQ
	// state itself is part of the network fabric and survives crashes.
	Down func(ids.NodeID) bool
	// QueueLimit, when positive, bounds the frames concurrently in
	// flight on each directed link (a model of a finite send queue). A
	// frame offered to a full link is shed — observed as EventShed — at
	// the physical layer, below the ARQ: with ARQ enabled a shed frame
	// stays un-acked and the sender's timeout re-offers it once the
	// queue has drained, so bounded links are backpressure, not loss.
	// Without ARQ a shed frame is lost like any other drop.
	QueueLimit int
	// OnDrop, when set, is told of every dropped or shed transmission
	// attempt — of a frame or, under ARQ, of its ack.
	OnDrop DropHook
}

// Wired is the static network among MSSs and servers: reliable by
// default, faulty when a FaultHook is configured, and reliable again on
// top of faults when the ARQ layer is enabled.
type Wired struct {
	k   sim.Scheduler
	cfg WiredConfig
	rng *sim.RNG
	// index maps, per node kind, a node number to its member index plus
	// one (0: not a member): two array reads per hop instead of a hash.
	index    [ids.KindServer + 1][]int32
	members  []ids.NodeID
	handlers []Handler
	eps      []*causal.Endpoint
	observer Observer
	links    map[int]*wiredLink // ARQ state per directed pair (see link)
	// queued counts the frames in flight per directed link, at from*n+to,
	// when links are bounded (QueueLimit). Every scheduled arrival holds a
	// slot until it fires; the sequencer bypasses the links, so under it
	// nothing is counted.
	queued []int32
	shed   int64 // frames shed by full link queues
	frames sim.FreeList[wiredFrame]
	arq    sim.FreeList[arqPending]
	retx   []*sim.Timeouts[*arqPending] // ARQ retransmissions, one FIFO per backoff step
	pooled bool                         // a frame fires at most once, so fired records are recycled
}

// wiredFrame is one message in flight on the wired network: what the
// kernel fires, what the causal layer holds back and hands up, what an
// ARQ link keeps until first delivery. Lifetime (DESIGN §10, Records,
// not closures): a record is released once the handler it delivers to returns —
// the handler is shown a view of the record's leg — or when its frame is
// dropped on arrival; a held-back frame keeps it until handed up; nothing
// touches it after release.
type wiredFrame struct {
	w      *Wired
	fi, ti int          // member indices of sender and destination
	st     causal.Stamp // under Causal
	env    msg.Envelope // the message: a leg by value, or another message
	run    func()       // fire, bound once when the record is first allocated
}

// NewWired builds the wired network for a fixed membership of static
// hosts. Membership is fixed because the causal group's clocks and send
// logs are sized at creation (the paper likewise fixes the set of MSSs).
func NewWired(k sim.Scheduler, members []ids.NodeID, cfg WiredConfig, obs Observer) *Wired {
	if cfg.Latency == nil {
		cfg.Latency = Constant(0)
	}
	w := &Wired{
		k:        k,
		cfg:      cfg,
		rng:      k.RNG().Fork(),
		members:  append([]ids.NodeID(nil), members...),
		handlers: make([]Handler, len(members)),
		observer: obs,
		links:    make(map[int]*wiredLink),
	}
	if cfg.ARQ.Enabled {
		w.retx = cfg.ARQ.retransmissions(k)
	}
	if cfg.QueueLimit > 0 && cfg.Seq == nil {
		w.queued = make([]int32, len(members)*len(members))
	}
	for i, n := range members {
		if n.Kind == ids.KindMH || int(n.Kind) >= len(w.index) {
			panic(fmt.Sprintf("netsim: %v cannot be a wired member", n))
		}
		if w.memberIndex(n) >= 0 {
			panic(fmt.Sprintf("netsim: duplicate wired member %v", n))
		}
		t := w.index[n.Kind]
		if grow := int(n.Num) + 1 - len(t); grow > 0 {
			t = append(t, make([]int32, grow)...)
		}
		t[n.Num] = int32(i + 1)
		w.index[n.Kind] = t
	}
	// Recycling — of frame records here, of stamps in the causal layer —
	// needs at-most-once delivery: with ARQ the receiver dedups frames,
	// and without faults nothing duplicates. A faulty link without ARQ
	// can fire the same frame twice (duplication fault), and the
	// sequencer hook replays fires adversarially — both leave fired
	// records to the GC. (The ARQ's own records count their scheduled
	// events and always recycle: the sequencer bypasses the ARQ.)
	w.pooled = cfg.Seq == nil && (cfg.Faults == nil || cfg.ARQ.Enabled)
	w.eps = causal.Group(len(members), func(dst int, payload any) {
		w.deliver(payload.(*wiredFrame))
	}, causal.Pooled(w.pooled))
	return w
}

// memberIndex resolves a node to its member index, -1 for a non-member.
func (w *Wired) memberIndex(n ids.NodeID) int {
	if int(n.Kind) < len(w.index) {
		if t := w.index[n.Kind]; int(n.Num) < len(t) {
			return int(t[n.Num]) - 1
		}
	}
	return -1
}

// Register installs the message handler for a member node. Every member
// must be registered before it can receive.
func (w *Wired) Register(n ids.NodeID, h Handler) {
	i := w.memberIndex(n)
	if i < 0 {
		panic(fmt.Sprintf("netsim: %v is not a wired member", n))
	}
	w.handlers[i] = h
}

// Send transmits m from one static host to another. Both must be
// members. Delivery is reliable (under faults: reliable iff ARQ is on);
// order is causal when configured. The frame keeps m's envelope, so a
// view's leg is copied into the record.
func (w *Wired) Send(from, to ids.NodeID, m msg.Message) {
	f := w.frame(from, to)
	f.env = msg.EnvelopeOf(m)
	w.launch(f)
}

// frame takes a record for one message between two members.
func (w *Wired) frame(from, to ids.NodeID) *wiredFrame {
	fi, ti := w.memberIndex(from), w.memberIndex(to)
	if fi < 0 {
		panic(fmt.Sprintf("netsim: wired send from non-member %v", from))
	}
	if ti < 0 {
		panic(fmt.Sprintf("netsim: wired send to non-member %v", to))
	}
	f := w.frames.Get()
	if f == nil {
		f = &wiredFrame{w: w}
		f.run = f.fire
	}
	f.fi, f.ti = fi, ti
	return f
}

// launch puts a filled frame on its way.
func (w *Wired) launch(f *wiredFrame) {
	w.observeFrame(EventSent, f)
	if w.cfg.Causal {
		f.st = w.eps[f.fi].Send(f.ti)
	}
	switch {
	case w.cfg.Seq != nil:
		w.cfg.Seq.Offer(LayerWired, w.members[f.fi], w.members[f.ti], f.run)
	case w.cfg.ARQ.Enabled:
		w.sendARQ(f)
	default:
		w.transmitRaw(f)
	}
}

// transmitRaw is the non-ARQ physical path: one attempt, subject to
// faults and the Down gate. Without ARQ a lost frame stays lost.
func (w *Wired) transmitRaw(f *wiredFrame) {
	lf := w.fault(w.members[f.fi], w.members[f.ti])
	if lf.Drop {
		w.drop(EventDroppedLoss, f)
		return
	}
	for _, shed := w.enqueue(f.fi, f.ti, lf, f.run); shed > 0; shed-- {
		w.drop(EventShed, f)
	}
}

// fire is the frame's arrival off the raw link — the Down gate, then
// up — or out of the sequencer, which bypasses the gate.
func (f *wiredFrame) fire() {
	w := f.w
	w.dequeue(f.fi, f.ti)
	if w.cfg.Seq == nil && w.cfg.Down != nil && w.cfg.Down(w.members[f.ti]) {
		w.drop(EventDroppedUnreachable, f)
		w.release(f)
		return
	}
	w.arrive(f)
}

// arrive hands a frame up: through the causal layer, which may hold it
// back, when configured.
func (w *Wired) arrive(f *wiredFrame) {
	if w.cfg.Causal {
		w.eps[f.ti].Receive(f.st, f)
		return
	}
	w.deliver(f)
}

// release retires a fired record (see wiredFrame for when).
func (w *Wired) release(f *wiredFrame) {
	if w.pooled {
		f.env, f.st = msg.Envelope{}, causal.Stamp{}
		w.frames.Put(f)
	}
}

// enqueue schedules the physical arrivals of one transmission — one, or
// two under a duplication fault — each subject to the per-link queue
// bound: a copy that finds the link full is shed, never scheduled, and
// the caller observes it as EventShed. fire gives its slot back
// (dequeue) when it runs.
func (w *Wired) enqueue(fi, ti int, lf LinkFault, fire func()) (sent, shed int) {
	from, to := w.members[fi], w.members[ti]
	copies := 1
	if lf.Duplicate {
		copies = 2
	}
	for ; copies > 0; copies-- {
		if w.queued != nil {
			q := &w.queued[fi*len(w.members)+ti]
			if int(*q) >= w.cfg.QueueLimit {
				w.shed++
				shed++
				continue
			}
			*q++
		}
		w.k.Defer(w.sampleLatency(from, to)+lf.Delay, fire)
		sent++
	}
	return sent, shed
}

// dequeue returns the queue slot of an arrival that has fired.
func (w *Wired) dequeue(fi, ti int) {
	if w.queued != nil {
		w.queued[fi*len(w.members)+ti]--
	}
}

// Shed returns the number of frames shed by full link queues.
func (w *Wired) Shed() int64 { return w.shed }

// fault consults the fault hook, if any.
func (w *Wired) fault(from, to ids.NodeID) LinkFault {
	if w.cfg.Faults == nil {
		return LinkFault{}
	}
	return w.cfg.Faults.OnWired(from, to)
}

// sampleLatency draws the link delay for one attempt.
func (w *Wired) sampleLatency(from, to ids.NodeID) time.Duration {
	lat := w.cfg.Latency
	if w.cfg.PairLatency != nil {
		if pl := w.cfg.PairLatency(from, to); pl != nil {
			lat = pl
		}
	}
	return lat.Sample(w.rng)
}

// deliver hands a frame's message to its destination handler, a leg as
// a view of the record's, and releases the record once the handler
// returns.
func (w *Wired) deliver(f *wiredFrame) {
	h := w.handlers[f.ti]
	if h == nil {
		panic(fmt.Sprintf("netsim: wired member %v has no handler", w.members[f.ti]))
	}
	w.observeFrame(EventDelivered, f)
	h.HandleMessage(w.members[f.fi], f.env.Message())
	w.release(f)
}

func (w *Wired) observe(kind EventKind, from, to ids.NodeID, m msg.Message) {
	if w.observer != nil {
		w.observer(w.k.Now(), LayerWired, kind, from, to, m)
	}
}

// observeFrame reports a frame's event to the listener, if any.
func (w *Wired) observeFrame(kind EventKind, f *wiredFrame) {
	if w.observer != nil {
		w.observer(w.k.Now(), LayerWired, kind, w.members[f.fi], w.members[f.ti], f.env.Message())
	}
}

// drop reports a lost or shed attempt: to the drop hook, then the observer.
func (w *Wired) drop(kind EventKind, f *wiredFrame) {
	if w.cfg.OnDrop != nil {
		w.cfg.OnDrop(LayerWired, kind)
	}
	w.observeFrame(kind, f)
}

// MeanLatency exposes the configured mean wired delay (t_wired in the
// paper's §5 retransmission condition).
func (w *Wired) MeanLatency() time.Duration { return w.cfg.Latency.Mean() }

// CausalQueue reports the causally blocked messages buffered at a
// member's endpoint (diagnostic; empty without the causal layer).
func (w *Wired) CausalQueue(n ids.NodeID) []causal.QueuedInfo {
	i := w.memberIndex(n)
	if i < 0 {
		return nil
	}
	return w.eps[i].QueuedPayloads()
}

// MemberName resolves a causal process index back to the member node
// (diagnostic companion to CausalQueue).
func (w *Wired) MemberName(idx int) ids.NodeID {
	if idx < 0 || idx >= len(w.members) {
		return ids.NoNode
	}
	return w.members[idx]
}

// WirelessConfig parameterizes the per-cell wireless links.
type WirelessConfig struct {
	// Latency models the over-the-air delay.
	Latency LatencyModel
	// LossProb is the probability that a frame is lost even though the
	// destination is reachable.
	LossProb float64
	// Reachable gates downlink delivery: the MH must be in the sending
	// station's cell and active at delivery time. Uplink frames are gated
	// on the same predicate at send time (an MH can only transmit to the
	// station whose cell it occupies while active).
	Reachable Reachability
	// Seq, when set, sequences deliveries adversarially instead of by
	// latency (testing hook; see Sequencer). Per-link FIFO remains the
	// sequencer's responsibility.
	Seq Sequencer
	// DropFilter, when set, force-drops matching frames (testing hook
	// for targeted single-frame loss). It is consulted at delivery time
	// on the downlink and at send time on the uplink, alongside random
	// loss; a filtered frame is observed as EventDroppedLoss. The filter
	// is shown what an Observer is shown, borrowed for the call (see
	// Observer): a leg as a msg.View, a windowed frame by pointer.
	DropFilter func(from, to ids.NodeID, m msg.Message) bool
	// QueueLimit, when positive, bounds the data frames concurrently in
	// flight on each directed radio link. A frame offered to a full
	// link is shed (EventShed) — extra loss, which the protocol's
	// recovery machinery (proxy re-forwarding, client retries) absorbs.
	// Registration and admission signaling (join, leave, greet up;
	// reg-confirm, admit, busy down) rides the link-layer beacon
	// exchange the paper abstracts over: it is never shed and does not
	// occupy the bounded data queue. Without the exemption a beacon
	// reply can pin a limit-1 downlink exactly when the re-forwarded
	// result arrives, shedding it on every recovery cycle — a livelock
	// the control plane must not be able to cause.
	QueueLimit int
	// WTP, when enabled, routes downlink data through the windowed
	// wireless transport (E15): per-(MSS, MH) sliding-window ARQ with
	// selective acks, RTT-driven retransmission and AIMD congestion
	// control, plus coalescing of small results into MTU-sized frames.
	// Control signaling still rides the beacon exchange, and the
	// Sequencer hook (adversarial-order testing) bypasses the window.
	// Off — the default — the legacy per-message path is untouched, so
	// pre-E15 experiments stay byte-identical.
	WTP wtp.Config
	// OnDrop, when set, is told of every frame lost, found unreachable or
	// shed — a windowed data frame or ack as much as a plain message.
	OnDrop DropHook
}

// Wireless models every cell's radio link. There is one Wireless value
// for the whole world; cells are distinguished by the sending MSS.
//
// Each (sender, receiver) pair is FIFO: a frame never overtakes an
// earlier frame on the same link. A mobile host talks to a station over
// a single radio channel, so in-order delivery per direction is the
// physical reality — and the protocol depends on it (a request must not
// arrive at the new station before the greet that announces the MH).
type Wireless struct {
	k        sim.Scheduler
	cfg      WirelessConfig
	rng      *sim.RNG
	mhs      map[ids.MH]Handler
	stations map[ids.MSS]Handler
	observer Observer
	links    [2]map[uint64]radioLink // links with frames in flight, by direction and radioKey
	shed     int64                   // frames shed by full link queues
	frames   sim.FreeList[radioFrame]

	// Windowed-transport state (E15), allocated only when cfg.WTP is
	// enabled. Like the wired ARQ state, it is part of the network
	// fabric keyed by (downlink) radioKey.
	wtpOut map[uint64]*wtp.Sender
	wtpIn  map[uint64]*wtp.Receiver
}

// radioKey packs a cell link's two ends into one word: with the
// direction (0 down, 1 up), the key of all per-link state.
func radioKey(mss ids.MSS, mh ids.MH) uint64 { return uint64(mss)<<32 | uint64(mh) }

// radioLink is a directed radio link's state while frames are in flight
// on it. The last of them to arrive drops it, so the table holds only
// live links: a horizon no later than now holds back no later frame.
type radioLink struct {
	last   sim.Time // FIFO horizon: no later frame on the link arrives earlier
	queued int      // frames holding a slot of the bounded link queue
}

// radioOp says what a radio frame carries; odd ops fly up.
type radioOp uint8

const (
	opDownlink radioOp = iota // a message, station to host
	opUplink                  // a message, host to station
	opWtpData                 // a windowed data frame, station to host
	opWtpAck                  // a windowed ack, host to station
)

// radioFrame is one frame on the air, recycled under wiredFrame's
// lifetime rule. Station-to-host frames are gated (reachability, loss,
// drop filter) when they fire, host-to-station frames before they fly.
// A windowed frame's lists are copied at send into arrays the record owns
// and reuses (inner, sacks): the sender hands the frame's array on to a
// later frame once the frame is acked, and the receiver rewrites its ack
// buffer at its next frame, while this transmission may still be in the
// air.
type radioFrame struct {
	w      *Wireless
	op     radioOp
	queued bool // holds a slot of the bounded link queue until it fires
	mss    ids.MSS
	mh     ids.MH
	from   ids.NodeID     // the sending end
	to     ids.NodeID     // the receiving end
	env    msg.Envelope   // opDownlink, opUplink
	data   msg.WtpData    // opWtpData; its Inner is inner
	ack    msg.WtpAck     // opWtpAck; its Sacks are sacks
	inner  []msg.Envelope // opWtpData
	sacks  []uint64       // opWtpAck
	run    func()         // fire, bound once when the record is first allocated
}

func (f *radioFrame) dir() int { return int(f.op & 1) }

// shown is the frame's content as a handler, an observer and the drop
// filter see it, valid until the record is released: a windowed frame by
// a pointer to its typed field, and a message as its envelope shows it.
func (f *radioFrame) shown() msg.Message {
	switch f.op {
	case opWtpData:
		return &f.data
	case opWtpAck:
		return &f.ack
	}
	return f.env.Message()
}

// NewWireless builds the wireless substrate.
func NewWireless(k sim.Scheduler, cfg WirelessConfig, obs Observer) *Wireless {
	if cfg.Latency == nil {
		cfg.Latency = Constant(0)
	}
	if cfg.Reachable == nil {
		panic("netsim: WirelessConfig.Reachable is required")
	}
	w := &Wireless{
		k:        k,
		cfg:      cfg,
		rng:      k.RNG().Fork(),
		mhs:      make(map[ids.MH]Handler),
		stations: make(map[ids.MSS]Handler),
		observer: obs,
	}
	for d := range w.links {
		w.links[d] = make(map[uint64]radioLink)
	}
	if cfg.WTP.Enabled {
		w.wtpOut = make(map[uint64]*wtp.Sender)
		w.wtpIn = make(map[uint64]*wtp.Receiver)
	}
	return w
}

// Shed returns the number of frames shed by full radio link queues.
func (w *Wireless) Shed() int64 { return w.shed }

// wirelessControl reports whether m is registration or admission
// signaling that rides the link-layer beacon exchange: never shed and
// not counted against the bounded data queue (it still observes the
// per-link FIFO delay).
func wirelessControl(k msg.Kind) bool {
	switch k {
	case msg.KindJoin, msg.KindLeave, msg.KindGreet,
		msg.KindRegConfirm, msg.KindAdmit, msg.KindBusy:
		return true
	}
	return false
}

// frame takes a record for one frame between mss and mh.
func (w *Wireless) frame(op radioOp, mss ids.MSS, mh ids.MH) *radioFrame {
	f := w.frames.Get()
	if f == nil {
		f = &radioFrame{w: w}
		f.run = f.fire
	}
	f.op, f.mss, f.mh = op, mss, mh
	f.from, f.to = mss.Node(), mh.Node()
	if f.dir() == 1 {
		f.from, f.to = f.to, f.from
	}
	return f
}

// release retires a fired or dropped record. The sequencer may fire a
// record again, so under it records are left to the GC.
func (w *Wireless) release(f *radioFrame) {
	if w.cfg.Seq == nil {
		f.queued, f.env, f.data, f.ack = false, msg.Envelope{}, msg.WtpData{}, msg.WtpAck{}
		clear(f.inner) // no payload stays pinned by a spare record
		f.inner, f.sacks = f.inner[:0], f.sacks[:0]
		w.frames.Put(f)
	}
}

// finish reports the frame's fate — a drop to the drop hook, then any
// fate to the observer — and retires it.
func (w *Wireless) finish(kind EventKind, f *radioFrame) {
	if kind != EventDelivered && w.cfg.OnDrop != nil {
		w.cfg.OnDrop(LayerWireless, kind)
	}
	w.observeFrame(kind, f)
	w.release(f)
}

// send schedules f after a sampled link delay, stretched so the frame
// arrives no earlier than the previous frame on the same directed link.
// A bounded frame takes a slot of the link queue, or is shed when the
// link already has QueueLimit frames in flight.
func (w *Wireless) send(f *radioFrame, bounded bool) {
	links, key := w.links[f.dir()], radioKey(f.mss, f.mh)
	l := links[key]
	if bounded && w.cfg.QueueLimit > 0 {
		if l.queued >= w.cfg.QueueLimit {
			w.shed++
			w.finish(EventShed, f)
			return
		}
		l.queued++
		f.queued = true
	}
	now := w.k.Now()
	arrival := now + sim.Time(w.cfg.Latency.Sample(w.rng))
	if arrival < l.last {
		arrival = l.last
	}
	l.last = arrival
	links[key] = l
	w.k.Defer(time.Duration(arrival-now), f.run)
}

// dispatch puts a message frame on its way. Control signaling rides the
// beacon exchange outside the bounded data queue: a control reply can
// never pin the link and starve a result, and a join is never shed (a
// lost one would desynchronize the cell model).
func (w *Wireless) dispatch(f *radioFrame, control bool) {
	switch {
	case w.cfg.Seq != nil:
		w.cfg.Seq.Offer(LayerWireless, f.from, f.to, f.run)
	default:
		w.send(f, !control)
	}
}

// fire is the frame's arrival at the far end of the link.
func (f *radioFrame) fire() {
	w, links, key := f.w, f.w.links[f.dir()], radioKey(f.mss, f.mh)
	// The record is absent under the sequencer, which bypasses send, and
	// after a frame arriving at this same instant dropped it.
	if l, ok := links[key]; ok {
		if f.queued {
			l.queued--
		}
		if l.queued == 0 && l.last <= w.k.Now() {
			delete(links, key)
		} else if f.queued {
			links[key] = l
		}
	}
	var h Handler
	switch f.op {
	case opWtpAck:
		// Acks terminate inside the transport, at the sender whose frame
		// they answer, never at the station; the sender reads the
		// record's blocks, so it is released after.
		w.observeFrame(EventDelivered, f)
		w.wtpOut[key].OnAck(f.ack)
		w.release(f)
		return
	case opUplink:
		h = w.stations[f.mss]
	default:
		if !w.cfg.Reachable(f.mss, f.mh) {
			w.finish(EventDroppedUnreachable, f)
			return
		}
		if w.rng.Prob(w.cfg.LossProb) || w.filtered(f) {
			w.finish(EventDroppedLoss, f)
			return
		}
		h = w.mhs[f.mh]
	}
	if h == nil {
		w.finish(EventDroppedUnreachable, f)
		return
	}
	if f.op == opWtpData {
		w.receiveWtpFrame(f, h)
		return
	}
	w.observeFrame(EventDelivered, f)
	h.HandleMessage(f.from, f.shown())
	w.release(f)
}

// RegisterMH installs the radio handler of a mobile host.
func (w *Wireless) RegisterMH(mh ids.MH, h Handler) { w.mhs[mh] = h }

// RegisterMSS installs the radio handler of a support station.
func (w *Wireless) RegisterMSS(mss ids.MSS, h Handler) { w.stations[mss] = h }

// SendDownlink transmits from a station to a mobile host in its cell.
// The frame is lost if the MH is unreachable at delivery time (it
// migrated away or turned inactive while the frame was in flight), or by
// random loss. Loss is silent, exactly as in the paper: "the respMss
// does not attempt any new forwarding of the result" — recovery is the
// proxy's job.
func (w *Wireless) SendDownlink(from ids.MSS, to ids.MH, m msg.Message) {
	control := wirelessControl(m.Kind())
	if w.windowed() && !control {
		// Windowed transport: the message joins the per-link coalescing
		// buffer and travels inside a WtpData frame; the sender decides
		// when (window, congestion, retransmission). It keeps the
		// message's envelope.
		w.observe(EventSent, from.Node(), to.Node(), m)
		w.wtpSender(from, to).Queue(m)
		return
	}
	f := w.frame(opDownlink, from, to)
	f.env = msg.EnvelopeOf(m)
	w.observeFrame(EventSent, f)
	w.dispatch(f, control)
}

// windowed reports whether downlink data rides the windowed transport;
// the sequencer hook bypasses it.
func (w *Wireless) windowed() bool { return w.cfg.WTP.Enabled && w.cfg.Seq == nil }

// wtpSender returns (creating on first use) the windowed-transport
// sender of a directed downlink.
func (w *Wireless) wtpSender(from ids.MSS, to ids.MH) *wtp.Sender {
	key := radioKey(from, to)
	s, ok := w.wtpOut[key]
	if !ok {
		s = wtp.NewSender(w.k, w.cfg.WTP, func(f msg.WtpData) {
			w.transmitWtpFrame(from, to, f)
		})
		w.wtpOut[key] = s
	}
	return s
}

// transmitWtpFrame is one physical transmission attempt of a windowed
// data frame: subject to the bounded link queue at send time and to
// reachability, random loss and the drop filter at delivery time —
// exactly the gates a plain downlink message passes. Frame-level fates
// (loss, shed, unreachable) are observed with the WtpData envelope; the
// coalesced messages inside observe EventSent at Queue time and
// EventDelivered when the receiver hands them up in order. The record
// copies the frame's envelopes out of the sender's ring.
func (w *Wireless) transmitWtpFrame(from ids.MSS, to ids.MH, data msg.WtpData) {
	f := w.frame(opWtpData, from, to)
	f.inner = append(f.inner[:0], data.Inner...)
	f.data = msg.WtpData{Epoch: data.Epoch, Seq: data.Seq, Inner: f.inner}
	w.send(f, true)
}

// receiveWtpFrame runs at the mobile end of a windowed downlink, on the
// record f of an arrived data frame: the receiver reorders and dedups,
// newly in-order messages go up to the handler, and every live frame is
// acknowledged (cumulative watermark plus selective blocks) on the
// reverse link. The handler and the observer are shown views of the
// handed-up envelopes — the record's own, or the receiver's — so the
// record is released only once they have returned.
func (w *Wireless) receiveWtpFrame(f *radioFrame, h Handler) {
	from, to, key := f.mss, f.mh, radioKey(f.mss, f.mh)
	r, ok := w.wtpIn[key]
	if !ok {
		r = wtp.NewReceiver(w.cfg.WTP)
		w.wtpIn[key] = r
	}
	deliver, ack, live := r.Accept(f.data)
	if !live {
		w.release(f)
		return // dead epoch: the sender reset and moved on
	}
	// The frame itself is observed as delivered (tracing sees the
	// transport's arrows, not just the payloads).
	w.observeFrame(EventDelivered, f)
	for i := range deliver {
		in := &deliver[i]
		w.observe(EventDelivered, from.Node(), to.Node(), in.Message())
		h.HandleMessage(from.Node(), in.Message())
	}
	w.sendWtpAck(from, to, ack)
	w.release(f)
}

// sendWtpAck returns an acknowledgment on the reverse radio link. Acks
// are subject to random loss (a lost ack costs one retransmission) but,
// like the beacon control traffic, ride outside the bounded data queue.
// The record copies the receiver's selective blocks.
func (w *Wireless) sendWtpAck(from ids.MSS, to ids.MH, a msg.WtpAck) {
	f := w.frame(opWtpAck, from, to)
	f.ack = a
	if a.Sacks != nil {
		f.sacks = append(f.sacks[:0], a.Sacks...)
		f.ack.Sacks = f.sacks
	}
	if w.rng.Prob(w.cfg.LossProb) {
		w.finish(EventDroppedLoss, f)
		return
	}
	w.send(f, false)
}

// WTPStats aggregates windowed-transport counters over all downlinks:
// total retransmissions (timeout + fast), fast retransmissions, link
// resets, first-transmission frames, messages carried by them, and
// duplicate frames seen by receivers. All zero when WTP is off.
func (w *Wireless) WTPStats() (retransmits, fast, resets, frames, msgs, dups int64) {
	for _, s := range w.wtpOut {
		retransmits += s.Retransmits
		fast += s.FastRetransmits
		resets += s.Resets
		frames += s.FramesSent
		msgs += s.MsgsFramed
	}
	for _, r := range w.wtpIn {
		dups += r.Duplicates
	}
	return
}

// SendUplink transmits from a mobile host to a station. The MH must be
// reachable from that station when transmitting (same-cell, active);
// random loss applies too — except for registration control messages
// (join, leave, greet), which model the link-layer-reliable beacon
// exchange the paper abstracts over in §2 ("we abstract from the details
// of how a MH learns that it is entering or leaving a cell").
func (w *Wireless) SendUplink(from ids.MH, to ids.MSS, m msg.Message) {
	f := w.frame(opUplink, to, from)
	f.env = msg.EnvelopeOf(m)
	control := wirelessControl(m.Kind())
	w.observeFrame(EventSent, f)
	if !w.cfg.Reachable(f.mss, f.mh) {
		w.finish(EventDroppedUnreachable, f)
		return
	}
	if !control && (w.rng.Prob(w.cfg.LossProb) || w.filtered(f)) {
		w.finish(EventDroppedLoss, f)
		return
	}
	w.dispatch(f, control)
}

// filtered consults the DropFilter test hook, if any.
func (w *Wireless) filtered(f *radioFrame) bool {
	return w.cfg.DropFilter != nil && w.cfg.DropFilter(f.from, f.to, f.shown())
}

func (w *Wireless) observe(kind EventKind, from, to ids.NodeID, m msg.Message) {
	if w.observer != nil {
		w.observer(w.k.Now(), LayerWireless, kind, from, to, m)
	}
}

// observeFrame reports a frame-level event to the listener, if any.
func (w *Wireless) observeFrame(kind EventKind, f *radioFrame) {
	if w.observer != nil {
		w.observer(w.k.Now(), LayerWireless, kind, f.from, f.to, f.shown())
	}
}

// MeanLatency exposes the configured mean wireless delay (t_wireless in
// the paper's §5 retransmission condition).
func (w *Wireless) MeanLatency() time.Duration { return w.cfg.Latency.Mean() }
