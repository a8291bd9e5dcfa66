package main

// Span tracing from outside the program: the harness wraps the scheduler
// (one span per callback and per Defer/After call), both transports (one
// span per Send*) and every handler the world registers on them (one span
// per HandleMessage), and hands the wrappers to rdpcore.NewWorldWith. A
// span's self time is its duration less the part its child spans cover.
// Spans carry the request id where the message has one. Aggregates cover
// every span; the first maxKeptSpans are kept whole for the trace file.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/rdpcore"
	"repro/internal/sim"
	"repro/internal/wtp"
)

type spanKind uint8

const (
	spCallback  spanKind = iota // a scheduler callback (root span)
	spSched                     // a Defer/After call into the kernel
	spWiredSend                 // WiredTransport.Send
	spDownSend                  // WirelessTransport.SendDownlink
	spUpSend                    // WirelessTransport.SendUplink
	spMSS                       // station HandleMessage
	spMH                        // mobile host HandleMessage
	spServer                    // server HandleMessage
	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{"callback", "sched", "wired_send", "down_send", "up_send", "mss_handle", "mh_handle", "server_handle"}

// class says whose work a callback's self time is: the code that
// scheduled it. A callback scheduled from inside a callback inherits.
type class uint8

const (
	clsDriver   class = iota // scheduled by the harness: issue, migrate, fault plan
	clsWired                 // scheduled inside a wired Send: delivery, ARQ timers
	clsWireless              // scheduled inside a radio Send: delivery, wtp timers
	clsCore                  // scheduled by a station or host handler: protocol timers
	clsServer                // scheduled by a server: processing delay
	numClasses
)

const (
	maxKinds     = 64 // msg.Kind values are well below this
	maxKeptSpans = 100_000
	maxMsgSample = 4096
)

type aggregate struct {
	N           int64
	Total, Self float64 // raw ns until scaled
}

type keptSpan struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"` // -1 for a root
	Kind    string `json:"kind"`
	Msg     string `json:"msg,omitempty"`
	Req     string `json:"req,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	SelfNs  int64  `json:"self_ns"`
}

type openSpan struct {
	kind     spanKind
	cls      class
	mk       msg.Kind
	req      ids.RequestID
	start    time.Time
	childNs  int64
	id       int32
	handlers int // handler spans opened directly below a callback
}

type tracer struct {
	t0    time.Time
	stack []openSpan
	kept  []keptSpan
	next  int32

	byKind  [numSpanKinds][maxKinds]aggregate
	byClass [numClasses]aggregate // callback spans by class

	// gapNs is time inside running slices but outside every callback: the
	// kernel's own pop/peek loop (plus the tracer's clock reads).
	gapNs     float64
	lastClose time.Time
	running   bool

	afters, cancels int64 // cancellable timers armed / cancelled while pending
	heldBack        int64 // handlers beyond the first in one wired delivery
	wiredDelivered  int64
	wiredBytes      int64
	sample          []msg.Message // first wired messages sent, for the codec replay

	wired    *netsim.Wired // the substrates under the wrappers
	wireless *netsim.Wireless
}

func newTracer() *tracer {
	return &tracer{stack: make([]openSpan, 0, 32), kept: make([]keptSpan, 0, maxKeptSpans)}
}

func requestOf(m msg.Message) ids.RequestID {
	switch v := m.(type) {
	case msg.Request:
		return v.Req
	case msg.ResultDeliver:
		return v.Req
	case msg.AckMH:
		return v.Req
	case msg.RequestForward:
		return v.Req
	case msg.ResultForward:
		return v.Req
	case msg.AckForward:
		return v.Req
	case msg.ServerRequest:
		return v.Req
	case msg.ServerResult:
		return v.Req
	}
	return ids.NoRequest
}

// currentClass is the class a callback scheduled right now belongs to.
func (t *tracer) currentClass() class {
	for i := len(t.stack) - 1; i >= 0; i-- {
		switch t.stack[i].kind {
		case spWiredSend:
			return clsWired
		case spDownSend, spUpSend:
			return clsWireless
		case spMSS, spMH:
			return clsCore
		case spServer:
			return clsServer
		case spCallback:
			return t.stack[i].cls
		}
	}
	return clsDriver
}

func (t *tracer) open(kind spanKind, cls class, m msg.Message) {
	now := time.Now()
	if len(t.stack) == 0 && t.running {
		t.gapNs += float64(now.Sub(t.lastClose))
	}
	s := openSpan{kind: kind, cls: cls, start: now, id: t.next}
	t.next++
	if m != nil {
		s.mk, s.req = m.Kind(), requestOf(m)
	}
	if n := len(t.stack); n > 0 && (kind == spMSS || kind == spServer) && t.stack[n-1].kind == spCallback {
		t.stack[n-1].handlers++
	}
	t.stack = append(t.stack, s)
}

func (t *tracer) close() {
	now := time.Now()
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	dur := int64(now.Sub(s.start))
	self := dur - s.childNs
	parent := int32(-1)
	if n > 0 {
		t.stack[n-1].childNs += dur
		parent = t.stack[n-1].id
	} else {
		t.lastClose = now
	}
	a := &t.byKind[s.kind][s.mk%maxKinds]
	a.N++
	a.Total += float64(dur)
	a.Self += float64(self)
	if s.kind == spCallback {
		c := &t.byClass[s.cls]
		c.N++
		c.Total += float64(dur)
		c.Self += float64(self)
		if s.cls == clsWired && s.handlers > 0 {
			t.wiredDelivered += int64(s.handlers)
			t.heldBack += int64(s.handlers - 1)
		}
	}
	if len(t.kept) < maxKeptSpans {
		k := keptSpan{ID: s.id, Parent: parent, Kind: spanKindNames[s.kind],
			StartNs: int64(s.start.Sub(t.t0)), DurNs: dur, SelfNs: self}
		if s.mk != msg.KindInvalid {
			k.Msg = s.mk.String()
		}
		if s.req.Valid() {
			k.Req = s.req.Origin.String() + "#" + strconv.FormatUint(uint64(s.req.Seq), 10)
		}
		t.kept = append(t.kept, k)
	}
}

// slice brackets one stretch of kernel stepping, so the time between
// callbacks inside it counts as the kernel's.
func (t *tracer) slice(fn func()) {
	t.running, t.lastClose = true, time.Now()
	fn()
	t.gapNs += float64(time.Since(t.lastClose))
	t.running = false
}

// sum adds up the aggregates of one span kind over message kinds.
func (t *tracer) sum(kind spanKind) aggregate {
	var out aggregate
	for i := range t.byKind[kind] {
		a := t.byKind[kind][i]
		out.N += a.N
		out.Total += a.Total
		out.Self += a.Self
	}
	return out
}

func (t *tracer) write(dir, workload string, factor float64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	doc := struct {
		Workload        string     `json:"workload"`
		Note            string     `json:"note"`
		CalibratedPerNs float64    `json:"calibrated_ns_per_raw_ns"`
		SpansTotal      int32      `json:"spans_total"`
		Spans           []keptSpan `json:"spans"`
	}{workload, "first spans of the traced repetition, raw ns from its start; multiply by calibrated_ns_per_raw_ns for calibrated ns", factor, t.next, t.kept}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// --- wrappers ---------------------------------------------------------

type tracedSched struct {
	k *sim.Kernel
	t *tracer
}

func (s tracedSched) Now() sim.Time { return s.k.Now() }
func (s tracedSched) RNG() *sim.RNG { return s.k.RNG() }

func (s tracedSched) wrap(fn func()) func() {
	cls := s.t.currentClass()
	return func() {
		s.t.open(spCallback, cls, nil)
		fn()
		s.t.close()
	}
}

func (s tracedSched) Defer(delay time.Duration, fn func()) {
	wrapped := s.wrap(fn)
	s.t.open(spSched, 0, nil)
	s.k.Defer(delay, wrapped)
	s.t.close()
}

func (s tracedSched) After(delay time.Duration, fn func()) sim.Canceler {
	wrapped := s.wrap(fn)
	s.t.open(spSched, 0, nil)
	c := s.k.After(delay, wrapped)
	s.t.close()
	s.t.afters++
	return tracedCanceler{c, s.t}
}

type tracedCanceler struct {
	c sim.Canceler
	t *tracer
}

func (c tracedCanceler) Cancel() bool {
	ok := c.c.Cancel()
	if ok {
		c.t.cancels++
	}
	return ok
}

type tracedHandler struct {
	h    netsim.Handler
	t    *tracer
	kind spanKind
}

func (h tracedHandler) HandleMessage(from ids.NodeID, m msg.Message) {
	h.t.open(h.kind, 0, m)
	h.h.HandleMessage(from, m)
	h.t.close()
}

type tracedWired struct {
	inner netsim.WiredTransport
	t     *tracer
}

func (w tracedWired) Send(from, to ids.NodeID, m msg.Message) {
	w.t.wiredBytes += int64(msg.WireSize(m))
	if len(w.t.sample) < maxMsgSample {
		w.t.sample = append(w.t.sample, m)
	}
	w.t.open(spWiredSend, 0, m)
	w.inner.Send(from, to, m)
	w.t.close()
}

func (w tracedWired) Register(n ids.NodeID, h netsim.Handler) {
	kind := spMSS
	if n.Kind == ids.KindServer {
		kind = spServer
	}
	w.inner.Register(n, tracedHandler{h, w.t, kind})
}

type tracedWireless struct {
	inner netsim.WirelessTransport
	t     *tracer
}

func (w tracedWireless) SendDownlink(from ids.MSS, to ids.MH, m msg.Message) {
	w.t.open(spDownSend, 0, m)
	w.inner.SendDownlink(from, to, m)
	w.t.close()
}

func (w tracedWireless) SendUplink(from ids.MH, to ids.MSS, m msg.Message) {
	w.t.open(spUpSend, 0, m)
	w.inner.SendUplink(from, to, m)
	w.t.close()
}

func (w tracedWireless) RegisterMH(mh ids.MH, h netsim.Handler) {
	w.inner.RegisterMH(mh, tracedHandler{h, w.t, spMH})
}

func (w tracedWireless) RegisterMSS(mss ids.MSS, h netsim.Handler) {
	w.inner.RegisterMSS(mss, tracedHandler{h, w.t, spMSS})
}

// newWorld builds the world the way rdpcore.NewWorldOn does, except that
// the scheduler, both substrates and every handler are wrapped. The
// substrates are configured exactly as NewWorldWith configures its own
// (the replay check against the count repetition would catch a drift),
// with the world's gates bound late because they need the world.
func (t *tracer) newWorld(k *sim.Kernel, cfg rdpcore.Config) *rdpcore.World {
	sched := tracedSched{k, t}
	var w *rdpcore.World
	var obs netsim.Observer
	relay := func(at sim.Time, layer netsim.Layer, kind netsim.EventKind, from, to ids.NodeID, m msg.Message) {
		if obs != nil {
			obs(at, layer, kind, from, to, m)
		}
	}
	members := make([]ids.NodeID, 0, cfg.NumMSS+cfg.NumServers)
	for i := 1; i <= cfg.NumMSS; i++ {
		members = append(members, ids.MSS(i).Node())
	}
	for i := 1; i <= cfg.NumServers; i++ {
		members = append(members, ids.Server(i).Node())
	}
	t.wired = netsim.NewWired(sched, members, netsim.WiredConfig{
		Latency:     cfg.WiredLatency,
		Causal:      cfg.Causal,
		Seq:         cfg.WiredSeq,
		PairLatency: cfg.WiredPairLatency,
		Faults:      cfg.WiredFaults,
		ARQ:         cfg.WiredARQ,
		Down:        func(n ids.NodeID) bool { return n.Kind == ids.KindMSS && w.IsDown(ids.MSS(n.Num)) },
		QueueLimit:  cfg.WiredQueueLimit,
	}, relay)
	// The windowed transport's Stats hooks come from the world, which does
	// not exist yet: bind them through the same late relay.
	wtpCfg := cfg.WirelessWTP
	var hooks wtp.Config
	if wtpCfg.Enabled {
		wtpCfg.OnRTTSample = func(rtt, rto time.Duration) { hooks.OnRTTSample(rtt, rto) }
		wtpCfg.OnCwnd = func(c int) { hooks.OnCwnd(c) }
		wtpCfg.OnRetransmit = func() { hooks.OnRetransmit() }
		wtpCfg.OnFrame = func(n int) { hooks.OnFrame(n) }
		wtpCfg.OnReset = func(n int) { hooks.OnReset(n) }
	}
	t.wireless = netsim.NewWireless(sched, netsim.WirelessConfig{
		Latency:    cfg.WirelessLatency,
		LossProb:   cfg.WirelessLoss,
		Reachable:  func(mss ids.MSS, mh ids.MH) bool { return w.Reachable(mss, mh) },
		Seq:        cfg.WirelessSeq,
		DropFilter: cfg.WirelessDropFilter,
		QueueLimit: cfg.WirelessQueueLimit,
		WTP:        wtpCfg,
	}, relay)
	w = rdpcore.NewWorldWith(sched, cfg, tracedWired{t.wired, t}, tracedWireless{t.wireless, t})
	obs, hooks = w.NetObserver(), w.WTPConfig()
	return w
}
