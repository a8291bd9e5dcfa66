package rdpcore

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wtp"
)

// statsCounters returns every Counter field of a Stats by name.
func statsCounters(st *Stats) map[string]int64 {
	out := map[string]int64{}
	v := reflect.ValueOf(st).Elem()
	for i := 0; i < v.NumField(); i++ {
		if c, ok := v.Field(i).Addr().Interface().(*metrics.Counter); ok {
			out[v.Type().Field(i).Name] = c.Value()
		}
	}
	return out
}

// wrapWired and wrapWireless hand everything to a netsim substrate
// through shown: each send forwards shown(m), and every handler is
// registered behind a wrapHandler, which hands it shown of what it is
// shown. Shown as it is, they are pass-through transports shaped like the
// benchmark harness's traced ones; shown through msg.Keep, every leg
// reaches every door — a send, a station's, a host's, a server's — boxed.
type wrapWired struct {
	inner netsim.WiredTransport
	shown func(msg.Message) msg.Message
}

func (p wrapWired) Send(from, to ids.NodeID, m msg.Message) { p.inner.Send(from, to, p.shown(m)) }
func (p wrapWired) Register(n ids.NodeID, h netsim.Handler) {
	p.inner.Register(n, wrapHandler{h, p.shown})
}

type wrapWireless struct {
	inner netsim.WirelessTransport
	shown func(msg.Message) msg.Message
}

func (p wrapWireless) SendDownlink(from ids.MSS, to ids.MH, m msg.Message) {
	p.inner.SendDownlink(from, to, p.shown(m))
}
func (p wrapWireless) SendUplink(from ids.MH, to ids.MSS, m msg.Message) {
	p.inner.SendUplink(from, to, p.shown(m))
}
func (p wrapWireless) RegisterMH(mh ids.MH, h netsim.Handler) {
	p.inner.RegisterMH(mh, wrapHandler{h, p.shown})
}
func (p wrapWireless) RegisterMSS(mss ids.MSS, h netsim.Handler) {
	p.inner.RegisterMSS(mss, wrapHandler{h, p.shown})
}

type wrapHandler struct {
	h     netsim.Handler
	shown func(msg.Message) msg.Message
}

func (p wrapHandler) HandleMessage(from ids.NodeID, m msg.Message) {
	p.h.HandleMessage(from, p.shown(m))
}

// asShown passes a message on as it is shown.
func asShown(m msg.Message) msg.Message { return m }

// boxedWorld is wrappedWorld through msg.Keep: every leg the world sends
// or is handed is a box, the stations' self-hops and the servers' jobs
// aside.
func boxedWorld(k *sim.Kernel, cfg Config) *World { return wrappedWorld(k, cfg, msg.Keep) }

// wrappedWorld builds the world NewWorldOn would, on the substrates
// NewWorldWith would build, but hands them to NewWorldWith behind
// wrapWired and wrapWireless through shown. The world's gates, drop hook
// and windowed-transport hooks are bound late, since they need the
// world.
func wrappedWorld(k *sim.Kernel, cfg Config, shown func(msg.Message) msg.Message) *World {
	var w *World
	members := make([]ids.NodeID, 0, cfg.NumMSS+cfg.NumServers)
	for i := 1; i <= cfg.NumMSS; i++ {
		members = append(members, ids.MSS(i).Node())
	}
	for i := 1; i <= cfg.NumServers; i++ {
		members = append(members, ids.Server(i).Node())
	}
	drop := func(layer netsim.Layer, kind netsim.EventKind) { w.CountDrop(layer, kind) }
	wired := netsim.NewWired(k, members, netsim.WiredConfig{
		Latency:     cfg.WiredLatency,
		Causal:      cfg.Causal,
		Seq:         cfg.WiredSeq,
		PairLatency: cfg.WiredPairLatency,
		Faults:      cfg.WiredFaults,
		ARQ:         cfg.WiredARQ,
		Down:        func(n ids.NodeID) bool { return w.nodeDown(n) },
		QueueLimit:  cfg.WiredQueueLimit,
		OnDrop:      drop,
	}, cfg.Observer)
	var hooks wtp.Config
	wcfg := cfg.WirelessWTP
	if wcfg.Enabled {
		wcfg.OnRTTSample = func(rtt, rto time.Duration) { hooks.OnRTTSample(rtt, rto) }
		wcfg.OnCwnd = func(c int) { hooks.OnCwnd(c) }
		wcfg.OnRetransmit = func() { hooks.OnRetransmit() }
		wcfg.OnFrame = func(n int) { hooks.OnFrame(n) }
		wcfg.OnReset = func(n int) { hooks.OnReset(n) }
	}
	wireless := netsim.NewWireless(k, netsim.WirelessConfig{
		Latency:    cfg.WirelessLatency,
		LossProb:   cfg.WirelessLoss,
		Reachable:  func(mss ids.MSS, mh ids.MH) bool { return w.reachable(mss, mh) },
		Seq:        cfg.WirelessSeq,
		DropFilter: cfg.WirelessDropFilter,
		QueueLimit: cfg.WirelessQueueLimit,
		WTP:        wcfg,
		OnDrop:     drop,
	}, cfg.Observer)
	w = NewWorldWith(k, cfg, wrapWired{wired, shown}, wrapWireless{wireless, shown})
	hooks = w.WTPConfig()
	return w
}

// TestStatsIndependentOfObserver: the world counts without a tap, and
// the same on a view as on a box. Three chaos runs — lossy, duplicating
// wired links, station crashes and proxy migration, under ARQ with bounded
// queues shedding on both substrates and a lossy windowed radio, under ARQ
// with host crashes, disconnections and the aggregated tables, and with
// host crashes and disconnections but no recovery stack — are each played
// with a nil Config.Observer, with a recording one, and with a recording
// one on transports that box every leg at every send and every handler's
// door (boxedWorld). Drops are counted through the substrates' drop hook
// and hand-off and migration traffic where stations and servers send it,
// so every Stats counter and the kernel's step count must agree, and the
// two recorded traces must be the same. The first run is E11's shape
// (priority classes, an admission high-water mark) and its hosts move, so
// a request shown as a view is classed and admitted as its box is, and the
// hand-off's four messages cross as both too.
func TestStatsIndependentOfObserver(t *testing.T) {
	observerArms(t, chaosParams{
		seed: 2, mhs: 6, cells: 5, recovery: true, overload: true, migrate: true, windowed: true,
		horizon: 40 * time.Second, drainFor: 15 * time.Second,
	}, "WiredDrops", "WirelessDrops", "NetworkShed", "Handoffs", "HandoffStateBytes", "UpdateCurrLocs",
		"MigMessages", "MigStateBytes")
	observerArms(t, chaosParams{
		seed: 5, mhs: 8, cells: 5, recovery: true, migrate: true, mhcrash: true, disconnect: true, aggregated: true,
		horizon: 40 * time.Second, drainFor: 15 * time.Second,
	}, "WiredDrops", "HandoffStateBytes", "MigMessages", "StaleIncarnationDrops", "ProxiesReclaimed", "OfflineReplayed")
	// Without the recovery stack no request timeout keeps a request: it
	// flies as a leg from the host.
	observerArms(t, chaosParams{
		seed: 3, mhs: 8, cells: 5, migrate: true, mhcrash: true, disconnect: true,
		horizon: 40 * time.Second, drainFor: 15 * time.Second,
	}, "WiredDrops", "MigMessages", "ProxiesReclaimed", "OfflineReplayed")
}

// observerArms plays one chaos run in the three arms of
// TestStatsIndependentOfObserver, compares them, and requires each named
// counter to have moved.
func observerArms(t *testing.T, p chaosParams, guards ...string) {
	t.Helper()
	run := func(obs netsim.Observer, boxed bool) (map[string]int64, uint64) {
		p.observer, p.boxed = obs, boxed
		w, _, _, _ := chaos(t, p)
		return statsCounters(w.Stats), w.Kernel.(*sim.Kernel).Steps()
	}
	bare, bareSteps := run(nil, false)
	legTrace, boxTrace := trace.New(), trace.New()
	tapped, tappedSteps := run(legTrace.Observe, false)
	if len(legTrace.Entries()) == 0 {
		t.Fatal("the recording observer saw nothing")
	}
	boxedStats, boxedSteps := run(boxTrace.Observe, true)
	for _, arm := range []struct {
		name  string
		stats map[string]int64
		steps uint64
	}{{"with an observer", tapped, tappedSteps}, {"boxed", boxedStats, boxedSteps}} {
		if reflect.DeepEqual(bare, arm.stats) && bareSteps == arm.steps {
			continue
		}
		for name, v := range bare {
			if arm.stats[name] != v {
				t.Errorf("seed %d: %s: %d without an observer, %d %s", p.seed, name, v, arm.stats[name], arm.name)
			}
		}
		t.Fatalf("seed %d: kernel steps: %d without an observer, %d %s", p.seed, bareSteps, arm.steps, arm.name)
	}
	if legs, boxes := legTrace.Entries(), boxTrace.Entries(); !reflect.DeepEqual(legs, boxes) {
		for i := range legs {
			if i >= len(boxes) || !reflect.DeepEqual(legs[i], boxes[i]) {
				t.Fatalf("seed %d: traces part at entry %d of %d/%d: %v on legs", p.seed, i, len(legs), len(boxes), legs[i])
			}
		}
		t.Fatalf("seed %d: the boxed trace runs on past the legs' %d entries", p.seed, len(legs))
	}
	for _, name := range guards {
		if bare[name] == 0 {
			t.Errorf("seed %d: %s = 0: the run never exercised what it guards", p.seed, name)
		}
	}
}
