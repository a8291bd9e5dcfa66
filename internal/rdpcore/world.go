package rdpcore

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/dcache"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/proxymig"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/wtp"
)

// Config parameterizes a World. DefaultConfig supplies values matching
// the paper's operating assumptions (reliable causal wired network, ack
// priority on, no wireless loss).
type Config struct {
	// Seed drives the deterministic kernel.
	Seed int64
	// NumMSS and NumServers size the static network. Stations are
	// ids.MSS(1..NumMSS); servers are ids.Server(1..NumServers).
	NumMSS     int
	NumServers int
	// Stations, when non-nil, overrides the default station set — the
	// region-aware construction used by the parallel engine
	// (internal/psim), where each region's world simulates only its own
	// subset of the global stations. NumMSS is ignored when set.
	Stations []ids.MSS
	// ServerIDs likewise overrides ids.Server(1..NumServers).
	ServerIDs []ids.Server

	// WiredLatency and WirelessLatency model the substrates; defaults
	// are 5ms wired, 20ms wireless (t_wired and t_wireless of §5).
	WiredLatency    netsim.LatencyModel
	WirelessLatency netsim.LatencyModel
	// WiredPairLatency, when set, overrides WiredLatency per host pair —
	// e.g. netsim.RingLatency for a metropolitan ring topology.
	WiredPairLatency func(from, to ids.NodeID) netsim.LatencyModel
	// WirelessLoss is the random frame loss probability.
	WirelessLoss float64
	// Causal enables causal-order wired delivery (assumption 1). Off for
	// the E2 ablation.
	Causal bool
	// AckPriority enables §3.1's ack-before-handoff processing priority.
	// It only has observable effect with ProcDelay > 0.
	AckPriority bool
	// ProcDelay is the per-message processing delay at each MSS; zero
	// means messages are processed the instant they arrive.
	ProcDelay time.Duration
	// HoldForInactive enables the §5 footnote 3 optimization: an MSS that
	// can detect the destination MH is inactive keeps the result and
	// delivers it on reactivation, saving a proxy retransmission.
	HoldForInactive bool
	// RequestTimeout, when positive, enables client-side request retry
	// (QRPC-style shim); zero disables it.
	RequestTimeout time.Duration
	// GreetRefresh, when positive, makes every active MH periodically
	// re-greet its respMss (a registration-refresh beacon, standard in
	// real mobility systems and abstracted over by §2). Each refresh is
	// treated as a reactivation, prompting an update_currentLoc and
	// thereby a retransmission of any stranded results; it also
	// reconciles a registration that drifted to another station after
	// greets reordered across radio links. Zero disables it (the
	// paper-pure protocol, where recovery waits for the next migration
	// or reactivation).
	GreetRefresh time.Duration
	// ServerProc models server-side request processing time (the paper
	// targets services with "long request processing times").
	ServerProc netsim.LatencyModel
	// WiredFaults, when set, injects per-attempt faults (drop, duplicate,
	// delay, partition) on every wired transmission — typically a
	// faults.Injector. Nil keeps the paper's reliable backbone.
	WiredFaults netsim.FaultHook
	// WiredARQ enables the wired link-layer retransmission protocol, which
	// restores reliable causal delivery under WiredFaults (the E10
	// recovery configuration). Off, an injected drop is permanent.
	WiredARQ netsim.ARQConfig
	// Checkpoint makes every station journal its protocol state (prefs,
	// responsibility, forwarding pointers, proxies) to an in-sim stable
	// store on every mutation, and replay the journal on restart after a
	// crash. Off, a crashed station restarts amnesiac (the E10 ablation).
	Checkpoint bool
	// RecoveryGrace is the pause between a checkpointed station's restart
	// and its recovery resends (re-issued server requests, re-forwarded
	// results, re-announced locations). The grace lets ARQ-held inbound
	// traffic — acks in particular — drain first, so the recovery pass
	// does not re-send results that were delivered just before the crash.
	RecoveryGrace time.Duration
	// HandoffTimeout, when positive, makes a new station re-issue its
	// Dereg while the hand-off is still pending after the timeout — the
	// peer-outage detection that unsticks hand-offs whose old station
	// crashed mid-transfer. Zero trusts the backbone (paper assumption 1).
	HandoffTimeout time.Duration
	// RegConfirm makes stations confirm every registration to the MH over
	// the downlink; the MH then names its last *confirmed* station as the
	// old respMss in greets. Without it, a greet lost to a crashed station
	// leaves the MH pointing its hand-off chain at a station that never
	// registered it.
	RegConfirm bool
	// WirelessDropFilter, when set, force-drops matching wireless frames
	// (delivery-time on the downlink, send-time on the uplink) — a
	// deterministic testing hook for targeted-loss scenarios. It is shown
	// what the Observer is shown, borrowed for the call.
	WirelessDropFilter func(from, to ids.NodeID, m msg.Message) bool
	// Observer, when set, receives every network event (tracing). The
	// message it is handed is borrowed for the call (netsim.Observer): a
	// request-path or hand-off message is a msg.View of the frame's leg,
	// a lost link-layer frame a pointer into the substrate's record. Read
	// it freely during the call; keep msg.Keep(m), not m, past it.
	Observer netsim.Observer
	// WiredSeq and WirelessSeq install adversarial delivery sequencers
	// on the substrates (testing hook; see internal/explore).
	WiredSeq    netsim.Sequencer
	WirelessSeq netsim.Sequencer

	// --- Overload protection (E11) ---

	// PriorityClasses generalizes §3.1's Ack-priority rule into a
	// three-class station inbox: control and acks first, admitted
	// result traffic second, new requests last. Under overload the
	// station finishes work in progress before starting more. Only
	// observable with ProcDelay > 0; overrides AckPriority when set.
	PriorityClasses bool
	// AdmissionHighWater, when positive, is the station inbox depth at
	// which new requests are refused with a busy-NACK instead of
	// enqueued. Retries of already-admitted requests are never refused.
	AdmissionHighWater int
	// BusyRetryBase, when positive, makes an MH whose request was
	// busy-refused re-issue it after a capped exponential backoff with
	// jitter: base·2^attempt, clamped to BusyRetryMax, plus up to 50%
	// jitter. Zero disables client busy-retry (a refused request is
	// simply dropped — the E11 ablation's client behavior under
	// refusal, though the ablation normally disables admission
	// entirely).
	BusyRetryBase time.Duration
	// BusyRetryMax clamps the busy-retry backoff; defaults to
	// 32×BusyRetryBase when zero.
	BusyRetryMax time.Duration
	// RequestDeadline, when positive, abandons a request that has not
	// been admitted by any station within the deadline of its issue:
	// retries stop and the request is counted in RequestsAbandoned.
	// Admitted requests are never abandoned — the delivery guarantee
	// covers them until the result arrives.
	RequestDeadline time.Duration
	// StationDelayHook, when set, adds per-station extra processing
	// delay on top of ProcDelay (the slow/overloaded-station fault
	// mode; see faults.Plan.Slowdowns). Consulted on every message.
	StationDelayHook func(ids.MSS) time.Duration
	// WiredQueueLimit and WirelessQueueLimit bound the frames in flight
	// per directed link on each substrate (netsim queue bounds; frames
	// past the bound are shed and counted in Stats.NetworkShed). Zero
	// means unbounded, the paper's model.
	WiredQueueLimit    int
	WirelessQueueLimit int

	// --- Proxy migration (E12; internal/proxymig) ---

	// Migration configures proxy migration: when a policy trigger fires
	// (forwarding-hop threshold, result-volume threshold, or load
	// imbalance) the proxy's full state moves to the MH's current
	// respMss, leaving a forwarding tombstone at the old host. The zero
	// value keeps the paper's fixed-proxy behavior. Migration control
	// relies on the reliable backbone (assumption 1 or the wired ARQ),
	// the same trust DeregAck places in it.
	Migration proxymig.Policy
	// StationDistance is the topological distance between stations, used
	// for forwarding-hop accounting and the hop-threshold trigger. Nil
	// defaults to the flat metric (0 to itself, 1 to everyone else); E12
	// installs proxymig.RingDistance to match its ring latency topology.
	StationDistance func(a, b ids.MSS) int

	// --- Disconnected operation (E17; internal/dcache) ---

	// ResultCache configures the per-station result cache consulted by
	// proxies before issuing a ServerRequest: a repeated query (same
	// server, same payload digest) within the TTL is answered at the MSS
	// without re-executing. The zero value disables caching, keeping
	// every message trace byte-identical to the uncached protocol. The
	// cache is volatile: a station crash clears it.
	ResultCache dcache.Config
	// BatchDeadline, when positive, bounds how long a proxy waits for an
	// atomic batch to become deliverable (committed with every member
	// result present). On expiry the proxy aborts the batch: member
	// requests are dropped undelivered and the MH is told to abandon
	// them — all-or-nothing, so a deadline can never yield a partial
	// batch. Zero means batches wait forever.
	BatchDeadline time.Duration

	// --- Mobile-host crash/amnesia recovery (E18) ---

	// LeaseTTL, when positive, enables incarnation-scoped delivery and
	// lease-based orphan reclamation: every responsible station
	// heartbeats the proxies of its registered hosts (period LeaseTTL/3,
	// skipping hosts it can tell are crashed), and a proxy whose lease
	// goes unrenewed for a full LeaseTTL reclaims itself — its state is
	// orphaned by a host that lost its volatile memory (CrashMH) and
	// will re-register under a fresh incarnation. Zero disables the
	// whole machinery (heartbeats, reclamation, and the dead-incarnation
	// quiescence checks), keeping E1–E17 traces byte-identical.
	LeaseTTL time.Duration

	// --- Windowed wireless transport (E15) ---

	// WirelessWTP, when enabled, routes downlink result traffic through
	// internal/wtp: per-(MSS, MH) sliding-window ARQ with selective
	// acks, Jacobson/Karn RTT estimation, AIMD congestion control and
	// MTU-budgeted coalescing of small results into shared frames. The
	// world attaches its Stats hooks (RTT/RTO/cwnd histograms,
	// retransmission and reset counters) before handing the config to
	// netsim. Disabled — the default — the wireless path is untouched
	// and E1–E18 traces stay byte-identical.
	WirelessWTP wtp.Config

	// --- Aggregated location state (E16) ---

	// AggregatedState switches every station's pref table — the record of
	// the hosts it is responsible for — from a hash map to a compact
	// aggregate structure: members by distinct pref value, membership as
	// chunked sorted/bitmap sets (internal/aggstate). The protocol's
	// message traces are unchanged by the representation alone; only
	// memory drops. Combined with GroupTopic it additionally enables
	// shared group proxies. Off — the default — keeps the faithful
	// representation and byte-identical traces.
	AggregatedState bool
	// GroupTopic, when set together with AggregatedState, classifies a
	// request at its respMss: a (server, payload) pair mapped to a topic
	// (ok=true) is served through a shared group proxy — one proxy per
	// (cell, server, topic) instead of one per MH — whose fan-out state
	// is aggregate membership rather than per-host request lists.
	// Requests it declines (ok=false) take the paper-faithful per-MH
	// proxy path unchanged. Nil disables group proxies entirely.
	GroupTopic func(ids.Server, []byte) (topic uint32, ok bool)
	// AggFlushDelay is the coalescing window for group-proxy signaling
	// from a respMss: hand-off location updates and forwarded-result
	// acks for the same shared proxy buffer for this long and leave as
	// one delta-encoded GroupUpdateLoc/GroupAckForward. Zero sends each
	// immediately (single-member messages).
	AggFlushDelay time.Duration
}

// DefaultConfig returns a configuration matching the paper's model: 3
// stations, 1 server, causal wired delivery, ack priority, reliable
// wireless, 5ms/20ms/150ms wired/wireless/server-processing times.
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		NumMSS:          3,
		NumServers:      1,
		WiredLatency:    netsim.Constant(5 * time.Millisecond),
		WirelessLatency: netsim.Constant(20 * time.Millisecond),
		Causal:          true,
		AckPriority:     true,
		ServerProc:      netsim.Constant(150 * time.Millisecond),
	}
}

// World assembles the full system model of §2: stations, servers, the
// wired and wireless substrates, and the mobile hosts with their
// location/activity ground truth. It owns the simulation kernel.
type World struct {
	cfg   Config
	Stats *Stats

	Kernel   sim.Scheduler
	Wired    netsim.WiredTransport
	Wireless netsim.WirelessTransport
	// out is the world's one outgoing leg slot: a node writes the leg it
	// sends here and hands the door a view of it (view). A door copies what
	// it is shown before anything else runs, so the slot is free again once
	// the send returns; it is never cleared. turn is the slot a station
	// shows a kept message from when it takes it back (an inbox turn, a
	// self-hop), since the record that kept it is recycled first, and a
	// host a kept request it sends again (MHNode.resend, onActivate),
	// since a map value has no address and the activation queue is
	// rewritten while it is replayed. Only the
	// goroutine stepping the world touches either: one slot each serves
	// every station and host, where one per host would add its size to
	// every host's footprint.
	out  msg.Leg
	turn msg.Envelope
	// spareQueue is an emptied activation queue (MHNode.queued), the
	// largest one handed back, for the next host that queues: one array
	// in the world rather than one kept by every host that ever slept.
	spareQueue []msg.Envelope
	// boxed is where legOf copies a box's leg for its reader (tcpnet and
	// the §4 baselines hand their handlers boxes): a handler reads one
	// message at a time, and a replay only ever shows views.
	boxed msg.Leg

	// MHs is the one index of hosts: location, activity, coverage, crash
	// state and the incarnation word live on the MHNode itself, so a host
	// absent from MHs (never added, or detached and in transit between
	// region worlds) reads as absent everywhere.
	MSSs    map[ids.MSS]*MSSNode
	Servers map[ids.Server]*server.AppServer
	MHs     map[ids.MH]*MHNode

	mssList []ids.MSS
	srvList []ids.Server

	// down marks crashed stations; see CrashMSS/RestartMSS. store is the
	// in-sim stable storage stations journal to when Config.Checkpoint is
	// on — it survives crashes by construction.
	down  map[ids.MSS]bool
	store *stableStore

	// hostTimers and stationTimers defer every host's timers
	// (MHNode.after) and every station's (MSSNode.after) as recycled
	// records; a host's retries (Config.RequestTimeout) and deadlines
	// (Config.RequestDeadline) wait in retries and deadlines instead.
	hostTimers         *sim.Calls[hostTimer]
	stationTimers      *sim.Calls[stationTimer]
	retries, deadlines *sim.Timeouts[hostTimer]
	// pastRow is the row a host writes for one of its own requests below
	// its table's window (MHNode.row): issued, and its result seen. Only
	// the goroutine stepping the world writes it; reads never do (has).
	pastRow mhReq

	// violations holds the first maxViolations breaches violate recorded.
	violations []violation
}

// violationKind names a way the protocol can find itself off its rails
// while running.
type violationKind uint8

const (
	// violDelProxyPending: a relayed Ack confirmed del-proxy while the
	// proxy still had requests pending (§3.3 forbids it).
	violDelProxyPending violationKind = iota
	// violLeaveWithProxy: a host left the system with a live private
	// proxy (assumption 6: it has acknowledged everything).
	violLeaveWithProxy
	// violPrefDeadProxy: a pref names a proxy of this station that the
	// station no longer hosts.
	violPrefDeadProxy
	// violBatchPartial: a batch was aborted after one of its members had
	// already been delivered (E17 atomicity).
	violBatchPartial
)

func (k violationKind) String() string {
	return [...]string{
		"del-proxy confirmed with requests pending",
		"host left with a live proxy",
		"pref names a proxy its host no longer has",
		"aborted batch had a member delivered",
	}[k]
}

// violation is one recorded breach: what broke, when, and the host, proxy
// and request it was noticed on (zero where the kind has none).
type violation struct {
	kind  violationKind
	at    sim.Time
	mh    ids.MH
	proxy ids.ProxyID
	req   ids.RequestID
}

func (v violation) String() string {
	return fmt.Sprintf("%v at %v: %v %v %v", v.kind, v.at, v.mh, v.proxy, v.req)
}

// maxViolations bounds the record: Stats.Violations counts them all, and
// the first few are what a diagnosis starts from.
const maxViolations = 16

// violate counts a breach of a protocol invariant noticed while running
// and records the first maxViolations with their context.
func (w *World) violate(kind violationKind, mh ids.MH, proxy ids.ProxyID, req ids.RequestID) {
	w.Stats.Violations.Inc()
	if len(w.violations) < maxViolations {
		w.violations = append(w.violations, violation{kind: kind, at: w.Kernel.Now(), mh: mh, proxy: proxy, req: req})
	}
}

// ViolationLog describes the first breaches Stats.Violations counted, in
// the order they were noticed.
func (w *World) ViolationLog() []string {
	out := make([]string, len(w.violations))
	for i, v := range w.violations {
		out[i] = v.String()
	}
	return out
}

// NewWorld builds a world from cfg on a deterministic discrete-event
// kernel seeded with cfg.Seed. It panics on structurally invalid
// configurations (no stations); experiments construct worlds from code,
// so a bad shape is a programming error.
func NewWorld(cfg Config) *World {
	return NewWorldOn(sim.NewKernel(cfg.Seed), cfg)
}

// NewWorldOn builds a world on an explicit scheduler — the simulation
// kernel or a live goroutine runtime. The scheduler must not be running
// callbacks concurrently with this call.
func NewWorldOn(sched sim.Scheduler, cfg Config) *World {
	return NewWorldWith(sched, cfg, nil, nil)
}

// NewWorldWith builds a world on an explicit scheduler and, optionally,
// explicit transports (nil transports default to the netsim substrates,
// configured from cfg). Custom transports — e.g. tcpnet's real TCP
// sockets — must deliver messages serialized on the given scheduler.
func NewWorldWith(sched sim.Scheduler, cfg Config, wired netsim.WiredTransport, wireless netsim.WirelessTransport) *World {
	stations := cfg.Stations
	if stations == nil {
		if cfg.NumMSS < 1 {
			panic("rdpcore: Config.NumMSS must be >= 1")
		}
		for i := 1; i <= cfg.NumMSS; i++ {
			stations = append(stations, ids.MSS(i))
		}
	} else if len(stations) == 0 {
		panic("rdpcore: Config.Stations must not be empty")
	}
	servers := cfg.ServerIDs
	if servers == nil {
		for i := 1; i <= cfg.NumServers; i++ {
			servers = append(servers, ids.Server(i))
		}
	}
	w := &World{
		cfg:     cfg,
		srvList: servers,
		Stats:   NewStats(),
		Kernel:  sched,
		MSSs:    make(map[ids.MSS]*MSSNode, len(stations)),
		Servers: make(map[ids.Server]*server.AppServer, len(servers)),
		MHs:     make(map[ids.MH]*MHNode),
		down:    make(map[ids.MSS]bool),
		store:   newStableStore(),
	}
	w.hostTimers = sim.NewCalls(sched, hostTimer.fire)
	w.stationTimers = sim.NewCalls(sched, stationTimer.fire)
	w.retries = sim.NewTimeouts(sched, cfg.RequestTimeout, hostTimer.fire, hostTimer.dead)
	w.deadlines = sim.NewTimeouts(sched, cfg.RequestDeadline, hostTimer.fire, hostTimer.dead)

	members := make([]ids.NodeID, 0, len(stations)+len(servers))
	for _, id := range stations {
		w.mssList = append(w.mssList, id)
		members = append(members, id.Node())
	}
	for _, id := range servers {
		members = append(members, id.Node())
	}

	if wired == nil {
		wired = netsim.NewWired(w.Kernel, members, netsim.WiredConfig{
			Latency:     cfg.WiredLatency,
			Causal:      cfg.Causal,
			Seq:         cfg.WiredSeq,
			PairLatency: cfg.WiredPairLatency,
			Faults:      cfg.WiredFaults,
			ARQ:         cfg.WiredARQ,
			Down:        w.nodeDown,
			QueueLimit:  cfg.WiredQueueLimit,
			OnDrop:      w.CountDrop,
		}, cfg.Observer)
	}
	w.Wired = wired
	if wireless == nil {
		wireless = netsim.NewWireless(w.Kernel, netsim.WirelessConfig{
			Latency:    cfg.WirelessLatency,
			LossProb:   cfg.WirelessLoss,
			Reachable:  w.reachable,
			Seq:        cfg.WirelessSeq,
			DropFilter: cfg.WirelessDropFilter,
			QueueLimit: cfg.WirelessQueueLimit,
			WTP:        w.wtpConfig(cfg.WirelessWTP),
			OnDrop:     w.CountDrop,
		}, cfg.Observer)
	}
	w.Wireless = wireless

	for _, id := range w.mssList {
		n := newMSSNode(id, w)
		w.MSSs[id] = n
		w.Wired.Register(id.Node(), n)
		w.Wireless.RegisterMSS(id, n)
	}
	for _, id := range servers {
		s := server.New(id, w.Kernel, w.Wired, cfg.ServerProc, nil)
		s.OnEcho = w.Stats.MigMessages.Inc
		w.Servers[id] = s
		w.Wired.Register(id.Node(), s)
	}
	return w
}

// wtpConfig chains the world's Stats accounting onto the user's
// windowed-transport hooks (any hooks already set keep firing). The
// parallel engine reuses it so every region's links feed the shared
// Stats exactly like the serial world's.
func (w *World) wtpConfig(c wtp.Config) wtp.Config {
	if !c.Enabled {
		return c
	}
	userRTT, userCwnd, userRtx, userFrame := c.OnRTTSample, c.OnCwnd, c.OnRetransmit, c.OnFrame
	c.OnRTTSample = func(rtt, rto time.Duration) {
		w.Stats.WTPRtt.Observe(rtt)
		w.Stats.WTPRto.Observe(rto)
		if userRTT != nil {
			userRTT(rtt, rto)
		}
	}
	c.OnCwnd = func(cwnd int) {
		w.Stats.WTPCwnd.Observe(time.Duration(cwnd))
		if userCwnd != nil {
			userCwnd(cwnd)
		}
	}
	c.OnRetransmit = func() {
		w.Stats.WTPRetransmits.Inc()
		if userRtx != nil {
			userRtx()
		}
	}
	c.OnFrame = func(msgs int) {
		w.Stats.WTPFrames.Inc()
		w.Stats.WTPFrameMsgs.Add(int64(msgs))
		if userFrame != nil {
			userFrame(msgs)
		}
	}
	userReset := c.OnReset
	c.OnReset = func(dropped int) {
		w.Stats.WTPResets.Inc()
		if userReset != nil {
			userReset(dropped)
		}
	}
	return c
}

// WTPConfig returns Config.WirelessWTP with the world's Stats hooks
// attached (see wtpConfig). Custom transports built outside the world —
// the parallel engine's per-region substrates, tcpnet — use it so their
// windowed links account to the same Stats.
func (w *World) WTPConfig() wtp.Config { return w.wtpConfig(w.cfg.WirelessWTP) }

// CountDrop is the world's loss accounting, the substrates' drop hook:
// NewWorldWith hands it to the netsim substrates it builds, and the
// parallel engine to each region's wired substrate. Sheds are drops of a
// distinct cause (a full bounded queue), counted apart from loss and
// unreachability.
func (w *World) CountDrop(layer netsim.Layer, kind netsim.EventKind) {
	switch {
	case kind == netsim.EventShed:
		w.Stats.NetworkShed.Inc()
	case layer == netsim.LayerWireless:
		w.Stats.WirelessDrops.Inc()
	default:
		w.Stats.WiredDrops.Inc()
	}
}

// NetObserver returns CountDrop as a network-event observer, chained with
// Config.Observer, for substrates built outside the world with no drop
// hook (the benchmark harness's traced substrates).
func (w *World) NetObserver() netsim.Observer {
	ext := w.cfg.Observer
	return func(at sim.Time, layer netsim.Layer, kind netsim.EventKind, from, to ids.NodeID, m msg.Message) {
		if kind.IsDrop() {
			w.CountDrop(layer, kind)
		}
		if ext != nil {
			ext(at, layer, kind, from, to, m)
		}
	}
}

// view writes l to the outgoing slot and shows it: what a door is handed
// to send l.
func (w *World) view(l msg.Leg) msg.View {
	w.out = l
	return msg.ViewOf(&w.out)
}

// legOf is the leg a message of a leg kind carries, for a handler to read
// during the call: a view's leg in place, or a box's copied into the
// world's boxed slot.
func (w *World) legOf(m msg.Message) *msg.Leg {
	if v, ok := m.(msg.View); ok {
		return v.Leg()
	}
	w.boxed, _ = msg.LegOf(m)
	return &w.boxed
}

// countWired accounts the hand-off state and the migration traffic a
// station puts on the wired network (MSSNode.sendWired); the servers'
// pref_redirect echoes are counted through server.AppServer.OnEcho.
func (w *World) countWired(m msg.Message) {
	switch m.Kind() {
	case msg.KindDeregAck:
		w.Stats.HandoffStateBytes.Add(int64(msg.WireSize(m)))
	case msg.KindMigOffer, msg.KindMigCommit, msg.KindPrefRedirect, msg.KindMigGC:
		w.Stats.MigMessages.Inc()
	case msg.KindMigState:
		w.Stats.MigMessages.Inc()
		w.Stats.MigStateBytes.Add(int64(msg.WireSize(m)))
	}
}

// Config returns the world's configuration.
func (w *World) Config() Config { return w.cfg }

// ReplaceServer swaps the wired-network node behind a server identifier
// for a custom implementation (the SIDAM substrate registers its
// Traffic Information Servers this way). The identifier must belong to
// one of the servers the world was configured with.
func (w *World) ReplaceServer(id ids.Server, h netsim.Handler) {
	if _, ok := w.Servers[id]; !ok {
		panic(fmt.Sprintf("rdpcore: unknown server %v", id))
	}
	delete(w.Servers, id)
	w.Wired.Register(id.Node(), h)
}

// StationList returns the station identifiers in ascending order.
func (w *World) StationList() []ids.MSS {
	return append([]ids.MSS(nil), w.mssList...)
}

// ServerList returns the server identifiers in configuration order —
// what a workload's Requests.Servers should name.
func (w *World) ServerList() []ids.Server {
	return append([]ids.Server(nil), w.srvList...)
}

// AddMH creates a mobile host in the given cell; the host immediately
// joins the system, active. It panics on duplicate ids or unknown cells.
func (w *World) AddMH(id ids.MH, cell ids.MSS) *MHNode {
	if !id.Valid() {
		panic("rdpcore: invalid MH id")
	}
	if _, dup := w.MHs[id]; dup {
		panic(fmt.Sprintf("rdpcore: duplicate MH %v", id))
	}
	w.mustCell(cell)
	h := newMHNode(id, w)
	w.MHs[id] = h
	w.Wireless.RegisterMH(id, h)
	h.loc, h.active = cell, true
	h.join(cell)
	return h
}

// Leave makes the MH exit the system (§2); assumption 6 is checked by
// the responsible station.
func (w *World) Leave(id ids.MH) {
	if h, ok := w.MHs[id]; ok {
		h.leave()
	}
}

// Rejoin brings back a mobile host that previously left the system
// (§2's join, for a host whose identity the world already knows). The
// host re-enters the given cell, active, with fresh protocol state at
// its station — a clean leave (assumption 6) guarantees nothing was
// pending.
func (w *World) Rejoin(id ids.MH, cell ids.MSS) {
	h := w.mustHost(id)
	if h.Joined() {
		panic(fmt.Sprintf("rdpcore: %v is still joined", id))
	}
	w.mustCell(cell)
	h.loc, h.active = cell, true
	h.join(cell)
}

// Migrate moves the MH to a new cell. For an active MH this triggers the
// greet/Hand-off machinery; an inactive MH is carried silently and
// greets on reactivation (§2: the greet is sent "whenever a MH enters a
// new cell" or "when it becomes active again").
func (w *World) Migrate(id ids.MH, cell ids.MSS) {
	h := w.mustHost(id)
	w.mustCell(cell)
	if h.loc == cell {
		return
	}
	h.loc = cell
	if h.active && !h.crashed {
		// A crashed host is carried silently; it greets from the cell it
		// reboots in (E18).
		h.greet(cell)
	}
}

// IssueRequest makes the MH issue a service request (MHNode.IssueRequest
// by id — the form scripted workloads use). A crashed host issues
// nothing and the zero RequestID comes back.
func (w *World) IssueRequest(id ids.MH, server ids.Server, payload []byte) ids.RequestID {
	return w.mustHost(id).IssueRequest(server, payload)
}

// DetachMH removes a mobile host from this world without ending its
// protocol life: the node object — respMss belief, request table, and
// the device state (activity, coverage, crash flag, incarnation word) —
// survives whole and can be re-attached to another world with AttachMH.
// This is the parallel engine's region hand-off: the host is radio-silent
// while in transit between region worlds, and its protocol state at the
// stations stays put (the next greet reaches the old respMss over the
// wired path exactly as in a serial world). It reports whether the host
// was active at detach time.
func (w *World) DetachMH(id ids.MH) (h *MHNode, active bool) {
	h = w.mustHost(id)
	// The offline journal is the one piece of the device's durable state
	// held by the world (its stable store); it rides on the node so
	// AttachMH can hand it to the destination world's store.
	h.xferJournal = w.store.offline[id]
	delete(w.MHs, id)
	delete(w.store.offline, id)
	// The host is radio-silent in transit: void its retransmit, deadline
	// and refresh timers, which still pending here fire as no-ops. The
	// timers re-arm from live state on the next attach-side activity.
	h.timerGen++
	return h, h.active
}

// AttachMH inserts a detached mobile host into this world in the given
// cell. An active host greets the cell's station immediately, naming its
// old respMss — which lives in another region's world, so the hand-off
// runs over the cross-region wired path. An inactive host is carried
// silently and greets on the next SetActive, as §2 prescribes.
func (w *World) AttachMH(h *MHNode, cell ids.MSS, active bool) {
	if h == nil {
		panic("rdpcore: AttachMH of nil host")
	}
	if _, dup := w.MHs[h.id]; dup {
		panic(fmt.Sprintf("rdpcore: duplicate MH %v", h.id))
	}
	w.mustCell(cell)
	h.w = w
	w.MHs[h.id] = h
	w.Wireless.RegisterMH(h.id, h)
	h.loc, h.active = cell, active
	if len(h.xferJournal) != 0 {
		w.store.offline[h.id] = h.xferJournal
	}
	h.xferJournal = nil
	if active && h.joined && !h.crashed {
		// A disconnected host's greet dies at the radio gate, as on a
		// serial Migrate; Reconnect re-greets from here.
		h.greet(cell)
	}
	// Rebuild the timer set DetachMH voided (refresh beacon, retry
	// chains, deadlines, batch retries) from the host's live state.
	h.rearmTimers()
}

// persistOffline journals an MH's offline request queue through the E10
// stable store (write-through on every mutation, like the stations'
// records); an empty queue erases the record. Gated on Checkpoint like
// every other journal write. The record is a checksummed byte log
// (journal.go): each message is wire-encoded and framed with a length
// and an FNV-64a, so a torn write is detected at replay time instead of
// resurrecting garbage requests.
func (w *World) persistOffline(mh ids.MH, queue []msg.Message) {
	if !w.cfg.Checkpoint {
		return
	}
	if len(queue) == 0 {
		delete(w.store.offline, mh)
	} else {
		// The log is rewritten over its own array: nothing else holds it
		// (loadOffline decodes copies, DetachMH takes it out of the store).
		log := w.store.offline[mh][:0]
		for _, m := range queue {
			at := len(log)
			rec, err := msg.AppendEncode(journalOpen(log), m)
			if err != nil {
				// Non-wire message in the queue (not produced by the
				// protocol); skip it rather than poison the journal.
				continue
			}
			journalSeal(rec, at)
			log = rec
		}
		w.store.offline[mh] = log
	}
	w.store.writes++
}

// loadOffline decodes an MH's journaled offline queue from the stable
// store, verifying each record's checksum. A corrupt record truncates
// the replay at the longest verified prefix (JournalTruncations counts
// it) and the store is rewritten to that prefix.
func (w *World) loadOffline(mh ids.MH) []msg.Message {
	log := w.store.offline[mh]
	if len(log) == 0 {
		return nil
	}
	records, truncated := journalScan(log)
	if truncated {
		w.Stats.JournalTruncations.Inc()
		var good []byte
		for _, body := range records {
			good = journalAppend(good, body)
		}
		if len(good) == 0 {
			delete(w.store.offline, mh)
		} else {
			w.store.offline[mh] = good
		}
		w.store.writes++
	}
	queue := make([]msg.Message, 0, len(records))
	for _, body := range records {
		m, err := msg.Decode(body)
		if err != nil {
			continue // checksummed but undecodable: never replay garbage
		}
		queue = append(queue, m)
	}
	return queue
}

// SetActive switches the MH between the active and inactive states of
// §2. Activation greets the station of the current cell.
func (w *World) SetActive(id ids.MH, activeNow bool) {
	h := w.mustHost(id)
	if h.active == activeNow {
		return
	}
	h.active = activeNow
	if activeNow && !h.crashed {
		h.onActivate(h.loc)
	}
}

// Refresh makes an active, joined MH re-greet its respMss immediately —
// a single registration-refresh beacon, the manual form of
// Config.GreetRefresh. It is a no-op for inactive or departed hosts.
func (w *World) Refresh(id ids.MH) {
	h, ok := w.MHs[id]
	if !ok || !h.joined || !h.active {
		return
	}
	h.greet(h.respMss)
}

// Disconnect takes the MH out of radio coverage entirely (E17's
// long-disconnection fault mode): no frame reaches it in either
// direction, and requests it issues are journaled in issue order for
// replay on Reconnect. Unlike SetActive(false), the host itself keeps
// running — disconnected operation, not dormancy. No-op if already
// disconnected.
func (w *World) Disconnect(id ids.MH) {
	h := w.mustHost(id)
	h.disconnected = true
}

// Reconnect restores the MH's radio. The host re-greets its station
// (announcing its location so stranded results re-forward) and replays
// its offline request queue in issue order; replayed requests
// deduplicate against the MH's own seen-set, the proxy's request
// memoization and the result cache. No-op if not disconnected.
func (w *World) Reconnect(id ids.MH) {
	h := w.mustHost(id)
	if !h.disconnected {
		return
	}
	h.disconnected = false
	if h.active && h.joined && !h.crashed {
		h.onReconnect(h.loc)
	}
}

// absentMH is what the by-id accessors read for a host that is not
// resident in the world (unknown, or detached and in transit): in no
// cell, inactive, no incarnation. It is never written.
var absentMH MHNode

// host returns the resident node for id, or absentMH.
func (w *World) host(id ids.MH) *MHNode {
	if h := w.MHs[id]; h != nil {
		return h
	}
	return &absentMH
}

// mustHost returns the resident node for id; the by-id lifecycle
// methods panic on a host the world does not hold.
func (w *World) mustHost(id ids.MH) *MHNode {
	h, ok := w.MHs[id]
	if !ok {
		panic(fmt.Sprintf("rdpcore: unknown MH %v", id))
	}
	return h
}

// mustCell panics unless cell is one of the world's stations.
func (w *World) mustCell(cell ids.MSS) {
	if _, ok := w.MSSs[cell]; !ok {
		panic(fmt.Sprintf("rdpcore: unknown cell %v", cell))
	}
}

// IsDisconnected reports whether the MH is currently out of coverage.
func (w *World) IsDisconnected(id ids.MH) bool { return w.host(id).disconnected }

// InCell reports whether the MH is currently located in the cell of the
// given station.
func (w *World) InCell(id ids.MH, cell ids.MSS) bool { return w.host(id).loc == cell }

// IsActive reports the MH's activity state.
func (w *World) IsActive(id ids.MH) bool { return w.host(id).active }

// Location returns the MH's current cell.
func (w *World) Location(id ids.MH) ids.MSS { return w.host(id).loc }

// distance returns the topological distance between two stations
// (Config.StationDistance, defaulting to the flat metric): the unit of
// the forwarding-hop accounting and of the hop-threshold trigger.
func (w *World) distance(a, b ids.MSS) int {
	if w.cfg.StationDistance != nil {
		return w.cfg.StationDistance(a, b)
	}
	if a == b {
		return 0
	}
	return 1
}

// reachable implements the wireless gate: in the station's cell and
// active, not disconnected, not crashed, and the station's radio itself
// up (a crashed station neither transmits nor receives).
func (w *World) reachable(mss ids.MSS, mh ids.MH) bool {
	h := w.MHs[mh]
	return h != nil && h.loc == mss && h.active && !h.disconnected && !h.crashed && !w.down[mss]
}

// nodeDown is the wired substrate's down gate: frames addressed to a
// crashed station are dropped un-acked (the ARQ sender keeps
// retransmitting them until the station restarts).
func (w *World) nodeDown(node ids.NodeID) bool {
	return node.Kind == ids.KindMSS && w.down[ids.MSS(node.Num)]
}

// IsDown reports whether the station is currently crashed.
func (w *World) IsDown(id ids.MSS) bool { return w.down[id] }

// CrashMSS fail-stops a station: its volatile state (message queues,
// pending hand-offs, held results — and, without Config.Checkpoint, all
// protocol state) is lost, and both its radio and its wired interface go
// dead until RestartMSS. A crash strikes between simulation events, and
// the journal is written on the way out of each (stable.go), so a
// checkpointed event is atomic; crashing a station from inside one of its
// own events is a harness bug and panics. No-op if already down.
func (w *World) CrashMSS(id ids.MSS) {
	n, ok := w.MSSs[id]
	if !ok || w.down[id] {
		return
	}
	if len(n.dirtyHosts)+len(n.dirtySlots) != 0 {
		panic(fmt.Sprintf("rdpcore: CrashMSS(%v) inside one of the station's events: its journal marks are not flushed", id))
	}
	w.down[id] = true
	w.Stats.MSSCrashes.Inc()
	n.crash()
}

// RestartMSS brings a crashed station back. With Config.Checkpoint the
// station replays its stable-store journal immediately and, after
// Config.RecoveryGrace, re-issues whatever the journal shows incomplete:
// server requests without results, un-acked result forwards, and
// update_currentLoc announcements for its responsible MHs with remote
// proxies. Without Checkpoint it restarts amnesiac. No-op if not down.
func (w *World) RestartMSS(id ids.MSS) {
	n, ok := w.MSSs[id]
	if !ok || !w.down[id] {
		return
	}
	delete(w.down, id)
	w.Stats.MSSRestarts.Inc()
	if !w.cfg.Checkpoint {
		return
	}
	n.restoreFromStore()
	n.after(w.cfg.RecoveryGrace, stationTimer{kind: timerRecovery})
}

// IsCrashed reports whether the MH is currently crashed (E18). Stations
// consult it as the radio-level liveness probe behind their lease
// heartbeats: a cellular station can distinguish a dead handset from a
// merely silent one at the link layer, which the simulation abstracts
// into this one predicate.
func (w *World) IsCrashed(id ids.MH) bool { return w.host(id).crashed }

// IncarnationOf returns the MH's current incarnation number — the
// monotonic counter in the host's non-volatile flash that survives
// crashes and is bumped on every restart (E18).
func (w *World) IncarnationOf(id ids.MH) ids.Incarnation { return w.host(id).inc }

// CrashMH fail-stops a mobile host with amnesia (E18): its radio goes
// dead and every piece of volatile protocol state — the seen-set, the
// outstanding/admitted/pending bookkeeping, the activation queue, the
// batch objects, all timers — is lost. Only the incarnation counter
// (non-volatile flash) and the journaled offline queue survive. The
// host's proxies and any in-flight results addressed to the dead
// incarnation are left orphaned; the lease machinery (Config.LeaseTTL)
// reclaims them. No-op if already crashed.
func (w *World) CrashMH(id ids.MH) {
	h := w.mustHost(id)
	if h.crashed {
		return
	}
	h.crashed = true
	w.Stats.MHCrashes.Inc()
	h.crash()
}

// RestartMH reboots a crashed mobile host under a fresh incarnation:
// the flash counter is bumped, the surviving offline journal is
// replayed through the incarnation filter (entries issued by the dead
// incarnation are discarded — their requests died with the memory that
// tracked them), and the host re-registers with the station of its
// current cell, carrying the new incarnation so stale state everywhere
// can be scrubbed. No-op if not crashed.
func (w *World) RestartMH(id ids.MH) {
	h := w.mustHost(id)
	if !h.crashed {
		return
	}
	h.crashed = false
	w.Stats.MHRestarts.Inc()
	h.reboot(h.inc + 1)
}

// CheckpointWrites returns the number of journal writes stations have
// made to stable storage (zero unless Config.Checkpoint).
func (w *World) CheckpointWrites() int64 { return w.store.writes }

// Reachable reports whether the mobile host is currently radio-reachable
// from the station (in its cell and active). Custom transports built
// with NewWorldWith install this as their radio gate.
func (w *World) Reachable(mss ids.MSS, mh ids.MH) bool { return w.reachable(mss, mh) }

// Schedule runs fn after the given delay of scheduler time — the way
// driver code injects actions (requests, migrations) into a running
// world.
func (w *World) Schedule(after time.Duration, fn func()) { w.Kernel.Defer(after, fn) }

// RunUntil advances the simulation to the given virtual instant. It
// panics on a live-runtime world, which advances by itself in real time.
func (w *World) RunUntil(t time.Duration) { w.kernel().RunUntil(sim.Time(t)) }

// Run drains every scheduled event (only safe without client retry
// timers, which re-arm themselves). It panics on a live-runtime world.
func (w *World) Run() { w.kernel().Run() }

// kernel returns the underlying discrete-event kernel.
func (w *World) kernel() *sim.Kernel {
	k, ok := w.Kernel.(*sim.Kernel)
	if !ok {
		panic("rdpcore: world runs on a live scheduler; it cannot be stepped")
	}
	return k
}

// TotalProxies returns the number of proxies currently hosted anywhere
// (invariant checks: at most one per MH, §3.1).
func (w *World) TotalProxies() int {
	n := 0
	for _, m := range w.MSSs {
		n += m.HostedProxies()
	}
	return n
}

// CheckInvariants verifies cross-node protocol invariants that hold at
// every instant, and returns a descriptive error on the first violation
// found — naming, for context, the first breach a node recorded while
// running (violate), if any. Tests call it after (and during) randomized
// runs.
//
// Invariants checked:
//  1. Each MH has at most one proxy *referenced by a pref* (§3.1: "at
//     any time each MH is associated with at most one proxy"). An
//     additional unreferenced proxy may exist transiently: once the
//     respMss confirms removal it erases the pref immediately, but the
//     del-proxy Ack is still in flight to the proxy host, and a new
//     request may legally create the successor proxy in that window.
//     CheckQuiescent rules the orphan out once traffic has drained.
//  2. Each MH is the responsibility of at most one station — holds a
//     pref there — except transiently during a hand-off (old
//     deregistered, new pending).
//  3. Every pref pointing at a proxy refers to a proxy that exists at
//     the named host.
func (w *World) CheckInvariants() error {
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	refOwner := make(map[ids.MH]ids.ProxyID)
	respOwner := make(map[ids.MH]ids.MSS)
	for _, id := range w.mssList {
		w.MSSs[id].prefs.forEach(func(mh ids.MH, pref msg.Pref) {
			if prev, dup := respOwner[mh]; dup {
				fail(fmt.Errorf("invariant 2: %v responsible at both %v and %v", mh, prev, id))
			}
			respOwner[mh] = id
			if !pref.HasProxy() {
				return
			}
			if prev, dup := refOwner[mh]; dup && prev != pref.Proxy {
				fail(fmt.Errorf("invariant 1: %v referenced by prefs for both %v and %v", mh, prev, pref.Proxy))
			}
			refOwner[mh] = pref.Proxy
			if err := w.resolveProxyRef(mh, pref.Proxy); err != nil {
				fail(err)
			}
		})
	}
	if firstErr != nil && len(w.violations) > 0 {
		return fmt.Errorf("%w (first of %d violations recorded while running: %v)",
			firstErr, w.Stats.Violations.Value(), w.violations[0])
	}
	return firstErr
}

// resolveProxyRef checks invariant 3 for one proxy reference: following
// migration tombstones (bounded, in case of a cycle bug), the reference
// must reach a live proxy or an inbound-migration reservation whose
// installation is in flight.
func (w *World) resolveProxyRef(mh ids.MH, p ids.ProxyID) error {
	for hops := 0; hops < 2*len(w.mssList)+2; hops++ {
		host, ok := w.MSSs[p.Host]
		if !ok {
			return fmt.Errorf("invariant 3: pref of %v names unknown host %v", mh, p.Host)
		}
		switch a := host.hosted[p.Seq].(type) {
		case *Proxy, *migReservation: // a reservation: mig_state install in flight
			return nil
		case *tombstone:
			p = a.newProxy
			continue
		}
		return fmt.Errorf("invariant 3: pref of %v names dead proxy %v", mh, p)
	}
	return fmt.Errorf("invariant 3: pref of %v loops through tombstones at %v", mh, p)
}

// CheckQuiescent verifies the stronger invariants that hold once all
// traffic has drained (no in-flight messages, no pending hand-offs):
// everything CheckInvariants demands, plus that no private proxy exists
// without a pref referencing it — in-flight deletions and hand-overs have
// settled, so an orphan proxy would be a leak — that every request a
// station routed to a host's private proxy has arrived there: routed does
// not pass the proxy's mark, and that no host is stranded (Stranded).
func (w *World) CheckQuiescent() error {
	if err := w.CheckInvariants(); err != nil {
		return err
	}
	if s := w.Stranded(); len(s) > 0 {
		h := w.MHs[s[0]]
		return fmt.Errorf("quiescence: %d hosts stranded, the first %v: %v", len(s), h.id, w.strandedBy(h))
	}
	referenced := make(map[ids.ProxyID]bool)
	for _, st := range w.MSSs {
		st.prefs.forEach(func(_ ids.MH, pref msg.Pref) {
			if pref.HasProxy() {
				referenced[pref.Proxy] = true
			}
		})
	}
	for _, id := range w.mssList {
		st := w.MSSs[id]
		tombstones, reservations := 0, 0
		for _, a := range st.hosted {
			switch a := a.(type) {
			case *Proxy:
				if err := w.settledProxy(a, referenced[a.id]); err != nil {
					return err
				}
			case *tombstone:
				tombstones++
			case *migReservation:
				reservations++
			}
		}
		if len(st.aggLocBuf) > 0 || len(st.aggAckBuf) > 0 {
			return fmt.Errorf("quiescence: %v still has buffered group signaling", id)
		}
		var err error
		st.prefs.forEach(func(mh ids.MH, pref msg.Pref) {
			p, routed := w.privateProxy(pref), st.peek(mh).routed
			if err == nil && p != nil && routed > p.mark {
				err = fmt.Errorf("quiescence: %v routed requests of %v up to #%d to %v, which has seen up to #%d",
					id, mh, routed, p.id, p.mark)
			}
		})
		if err != nil {
			return err
		}
		arriving, parked := 0, 0
		for _, h := range st.hosts {
			if x := h.x; x != nil {
				parked += len(x.parked)
				if x.arriving {
					arriving++
				}
			}
		}
		if arriving > 0 {
			return fmt.Errorf("quiescence: %v still has %d pending hand-offs", id, arriving)
		}
		if parked > 0 {
			return fmt.Errorf("quiescence: %v still has parked deregs", id)
		}
		if tombstones > 0 {
			return fmt.Errorf("quiescence: %v still has %d migration tombstones", id, tombstones)
		}
		if reservations > 0 {
			return fmt.Errorf("quiescence: %v still has %d inbound migration reservations", id, reservations)
		}
	}
	return nil
}

// Stranded lists, in id order, the hosts that a drained world leaves
// unable to receive what they wait for: a host that is joined, in
// coverage, active and alive whose respMss does not hold its pref, or
// one of whose outstanding requests the private proxy that pref names
// does not hold (a shared pref is exempt). Such a host gets nothing more
// unless it moves: every result goes to a station it does not listen to,
// or nowhere.
func (w *World) Stranded() []ids.MH {
	var out []ids.MH
	for id, h := range w.MHs {
		if w.strandedBy(h) != nil {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// strandedBy says why h is stranded, or nil.
func (w *World) strandedBy(h *MHNode) error {
	st := w.MSSs[h.respMss] // nil in a region world whose neighbour holds the cell
	if !h.joined || !h.active || h.disconnected || h.crashed || st == nil {
		return nil
	}
	pref, ok := st.PrefOf(h.id)
	if !ok {
		return fmt.Errorf("its respMss %v does not hold its pref", h.respMss)
	}
	if isSharedProxy(pref.Proxy) {
		return nil
	}
	p := w.privateProxy(pref)
	for _, req := range h.flagged(reqOutstanding) {
		if p == nil || p.req(req) == nil {
			return fmt.Errorf("its outstanding %v is not held by %v, the proxy its pref names", req, pref.Proxy)
		}
	}
	return nil
}

// privateProxy returns the private proxy pref names, or nil.
func (w *World) privateProxy(pref msg.Pref) *Proxy {
	if !pref.HasProxy() || isSharedProxy(pref.Proxy) {
		return nil
	}
	return w.MSSs[pref.Proxy.Host].ProxyByID(pref.Proxy)
}

// settledProxy is CheckQuiescent's view of one proxy: a private one
// referenced by a pref, a group one — which persists, durable
// infrastructure — with every entry drained (every subscribed member
// acknowledged its fan-out); no batch still unreleased and, under leases
// (E18), nothing owned by a dead incarnation — the lease machinery must
// have scrubbed or reclaimed it.
func (w *World) settledProxy(p *Proxy, referenced bool) error {
	switch {
	case p.group != nil && len(p.reqs) > 0:
		return fmt.Errorf("quiescence: group proxy %v still has %d open entries", p.id, len(p.reqs))
	case p.group == nil && !referenced:
		return fmt.Errorf("quiescence: proxy %v for %v is orphaned (pending=%d)", p.id, p.mh, p.Pending())
	}
	for _, b := range p.batches {
		if liveBatch(b) && !b.Released {
			return fmt.Errorf("quiescence: proxy %v still holds unreleased batch %v", p.id, b.Batch)
		}
	}
	if w.cfg.LeaseTTL <= 0 || p.group != nil {
		return nil
	}
	cur := w.IncarnationOf(p.mh)
	if incLess(p.leaseInc, cur) {
		return fmt.Errorf("quiescence: proxy %v leased to dead incarnation %v of %v (current %v)",
			p.id, normInc(p.leaseInc), p.mh, normInc(cur))
	}
	for _, r := range p.reqs {
		if incLess(r.Inc, cur) {
			return fmt.Errorf("quiescence: proxy %v holds request %v from dead incarnation %v of %v",
				p.id, r.Req, normInc(r.Inc), p.mh)
		}
	}
	for _, b := range p.batches {
		if liveBatch(b) && incLess(b.Inc, cur) {
			return fmt.Errorf("quiescence: proxy %v holds batch %v from dead incarnation %v of %v",
				p.id, b.Batch, normInc(b.Inc), p.mh)
		}
	}
	return nil
}
