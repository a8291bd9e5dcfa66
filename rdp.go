// Package rdp is a from-scratch implementation of RDP — the Result
// Delivery Protocol for mobile computing (Endler, Silva, Okuda; SIDAM
// project) — together with every substrate it runs on and the baselines
// it is evaluated against.
//
// RDP reliably delivers request results to mobile hosts that migrate
// between cells and switch between active and inactive states. A proxy
// object, created at the host's current Mobile Support Station when it
// issues a request, receives server replies at a fixed wired location
// and re-forwards them to the host's current station until the host
// acknowledges — at-least-once delivery, and exactly-once under the
// paper's causal-order and ack-priority conditions. Unlike Mobile IP's
// fixed home agent, the proxy retires once all results are delivered,
// so the next request places a new proxy wherever the host then is:
// forwarding load follows the user.
//
// # Quick start
//
//	cfg := rdp.DefaultConfig()
//	world := rdp.NewWorld(cfg)
//	mh := world.AddMH(1, 1)                      // mobile host in cell 1
//	var req rdp.RequestID
//	world.Schedule(0, func() { req = mh.IssueRequest(1, []byte("hello")) })
//	world.Schedule(40*time.Millisecond, func() { world.Migrate(1, 2) })
//	world.RunUntil(2 * time.Second)
//	fmt.Println(mh.Seen(req)) // true — delivered despite the migration
//
// Worlds run by default on a deterministic discrete-event kernel (equal
// seeds give byte-identical runs); the same protocol code also runs on
// real goroutines and wall-clock time via NewLiveRuntime.
//
// The package re-exports the pieces a user composes: configuration and
// world construction (this file), the SIDAM traffic-information
// application (sidamapi.go), and the Mobile IP / I-TCP comparison
// baselines (baselines.go). Experiment reproduction lives in
// bench_test.go and cmd/rdpbench.
package rdp

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/ids"
	"repro/internal/livenet"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/rdpcore"
	"repro/internal/sim"
	"repro/internal/tcpnet"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Identifier types.
type (
	// MH identifies a mobile host.
	MH = ids.MH
	// MSS identifies a mobile support station (one cell).
	MSS = ids.MSS
	// Server identifies a fixed application server.
	Server = ids.Server
	// RequestID identifies one client request.
	RequestID = ids.RequestID
	// ProxyID identifies one proxy incarnation.
	ProxyID = ids.ProxyID
)

// Core protocol types.
type (
	// Config parameterizes a World; see DefaultConfig.
	Config = rdpcore.Config
	// World is the full system: stations, servers, substrates, hosts.
	World = rdpcore.World
	// MobileHost is the client handle returned by World.AddMH.
	MobileHost = rdpcore.MHNode
	// Stats aggregates protocol measurements; see World.Stats.
	Stats = rdpcore.Stats
)

// Latency models for wired/wireless links and server processing.
type (
	// LatencyModel samples per-message delays.
	LatencyModel = netsim.LatencyModel
	// Constant is a fixed delay.
	Constant = netsim.Constant
	// Uniform draws uniformly from [Lo, Hi].
	Uniform = netsim.Uniform
	// Exponential draws Floor + Exp(Mean-Floor).
	Exponential = netsim.Exponential
)

// Workload generation.
type (
	// Mobility parameterizes itinerary generation.
	Mobility = workload.Mobility
	// MobilityEvent is one itinerary step.
	MobilityEvent = workload.Event
	// UniformCells, RingWalk, PingPong, Markov and GridWalk choose
	// migration targets.
	UniformCells = workload.UniformCells
	RingWalk     = workload.RingWalk
	PingPong     = workload.PingPong
	Markov       = workload.Markov
	GridWalk     = workload.GridWalk
	// Requests parameterizes request arrival generation.
	Requests = workload.Requests
	// Arrival is one generated request.
	Arrival = workload.Arrival
)

// Mobility event kinds.
const (
	EvMigrate    = workload.EvMigrate
	EvDeactivate = workload.EvDeactivate
	EvActivate   = workload.EvActivate
)

// Measurement helpers.
type (
	// Histogram collects duration samples with quantile queries.
	Histogram = metrics.Histogram
	// Counter is a monotonic event count.
	Counter = metrics.Counter
	// TraceRecorder records network events; install its Observe method
	// as Config.Observer. The substrates lend an Observer each message for
	// the call only, so the recorder keeps it through msg.Keep, and its
	// entries stay as they were seen. A custom Observer that keeps what
	// it is shown does the same.
	TraceRecorder = trace.Recorder
	// TraceStep describes one expected delivery in a scenario check.
	TraceStep = trace.Step
	// DiagramOptions tunes TraceRecorder.Diagram's space-time rendering.
	DiagramOptions = trace.DiagramOptions
)

// DefaultConfig returns the paper-faithful default configuration:
// 3 stations, 1 server, causal wired delivery, ack priority, reliable
// wireless, 5ms/20ms/150ms wired/wireless/server times.
func DefaultConfig() Config { return rdpcore.DefaultConfig() }

// NewWorld builds a world on a deterministic simulation kernel.
func NewWorld(cfg Config) *World { return rdpcore.NewWorld(cfg) }

// NewTrace returns an empty trace recorder.
func NewTrace() *TraceRecorder { return trace.New() }

// JainIndex computes the Jain fairness index of a load vector.
func JainIndex(loads []float64) float64 { return metrics.JainIndex(loads) }

// RingLatency builds a per-pair wired latency function for a
// metropolitan ring of n stations (assign it to Config.WiredPairLatency).
func RingLatency(n int, base, perHop time.Duration) func(from, to ids.NodeID) LatencyModel {
	return netsim.RingLatency(n, base, perHop)
}

// NodeID is the transport-level address of any node.
type NodeID = ids.NodeID

// Itinerary generates one host's mobility events over [0, horizon).
func Itinerary(rng *RNG, cfg Mobility, start MSS, horizon time.Duration) []MobilityEvent {
	return workload.Itinerary(rng, cfg, start, horizon)
}

// ScheduleRequests generates one host's request arrivals over
// [0, horizon).
func ScheduleRequests(rng *RNG, cfg Requests, horizon time.Duration) []Arrival {
	return workload.Schedule(rng, cfg, horizon)
}

// RNG is the deterministic random source used by workload generation.
type RNG = sim.RNG

// NewRNG returns a seeded random source.
func NewRNG(seed int64) *RNG { return sim.NewRNG(seed) }

// LiveRuntime runs the same protocol code on goroutines and wall-clock
// time; see NewLiveRuntime.
type LiveRuntime = livenet.Runtime

// NewLiveRuntime returns a live scheduler. Build a world on it with
// NewLiveWorld, call Start, and interact through Do.
func NewLiveRuntime(seed int64) *LiveRuntime { return livenet.New(seed) }

// NewLiveWorld builds a world on a live runtime. Construct it before
// calling rt.Start, and drive it only through rt.Do.
func NewLiveWorld(rt *LiveRuntime, cfg Config) *World {
	return rdpcore.NewWorldOn(rt, cfg)
}

// TCPNet is a network of real loopback TCP endpoints — the paper's
// "distributed processes within a Linux network" prototype. Obtain one
// with NewTCPWorld and Close it when done.
type TCPNet = tcpnet.Net

// NewTCPWorld builds a world whose stations and servers communicate
// over real loopback TCP sockets, with the protocol's binary codec on
// the wire and causal stamps on wired frames. Construct it before
// calling rt.Start, drive it through rt.Do, and Close the returned net
// after rt.Stop.
//
// TCP is the reliable link on this substrate: it has no link-layer ARQ,
// windowed radio transport, fault injector, delivery sequencer, queue
// bound, radio loss model or per-pair latency model, and its wired
// frames are always causally stamped. A Config that asks for anything
// else is rejected with an error naming the field, so a caller never
// believes a setting is in force that is not.
func NewTCPWorld(rt *LiveRuntime, cfg Config) (*World, *TCPNet, error) {
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"WiredARQ", cfg.WiredARQ.Enabled},
		{"WirelessWTP", cfg.WirelessWTP.Enabled},
		{"WiredFaults", cfg.WiredFaults != nil},
		{"WiredSeq", cfg.WiredSeq != nil},
		{"WirelessSeq", cfg.WirelessSeq != nil},
		{"WiredQueueLimit", cfg.WiredQueueLimit > 0},
		{"WirelessQueueLimit", cfg.WirelessQueueLimit > 0},
		{"WirelessLoss", cfg.WirelessLoss > 0},
		{"WirelessDropFilter", cfg.WirelessDropFilter != nil},
		{"WiredPairLatency", cfg.WiredPairLatency != nil},
		{"Causal=false", !cfg.Causal},
	} {
		if f.set {
			return nil, nil, fmt.Errorf("rdp: Config.%s is set, but the TCP substrate cannot honour it", f.name)
		}
	}
	members := make([]NodeID, 0, cfg.NumMSS+cfg.NumServers)
	for i := 1; i <= cfg.NumMSS; i++ {
		members = append(members, MSS(i).Node())
	}
	for i := 1; i <= cfg.NumServers; i++ {
		members = append(members, Server(i).Node())
	}
	n := tcpnet.New(rt, members)
	if err := n.Start(); err != nil {
		return nil, nil, err
	}
	w := rdpcore.NewWorldWith(rt, cfg, n, n)
	n.SetReachable(w.Reachable)
	return w, n, nil
}

// MessageKind re-exports the wire message kinds for trace assertions.
type MessageKind = msg.Kind

// Message kinds commonly matched in traces.
const (
	KindRequest          = msg.KindRequest
	KindResultDeliver    = msg.KindResultDeliver
	KindAckMH            = msg.KindAckMH
	KindGreet            = msg.KindGreet
	KindDereg            = msg.KindDereg
	KindDeregAck         = msg.KindDeregAck
	KindRequestForward   = msg.KindRequestForward
	KindUpdateCurrentLoc = msg.KindUpdateCurrentLoc
	KindResultForward    = msg.KindResultForward
	KindAckForward       = msg.KindAckForward
	KindDelPrefOnly      = msg.KindDelPrefOnly
	KindServerRequest    = msg.KindServerRequest
	KindServerResult     = msg.KindServerResult
	KindBusy             = msg.KindBusy
	KindAdmit            = msg.KindAdmit
)

// Fault injection and the recovery stack (experiment E10).
type (
	// FaultPlan declares the wired faults of a run: per-link drop/
	// duplicate/delay probabilities, timed partitions between station
	// groups, and scheduled station crash/restart windows.
	FaultPlan = faults.Plan
	// LinkFaults is the per-link fault distribution of a FaultPlan.
	LinkFaults = faults.LinkFaults
	// FaultLink addresses one directed wired link in FaultPlan.Links.
	FaultLink = faults.Link
	// Partition is a timed bidirectional partition between MSS groups.
	Partition = faults.Partition
	// Crash schedules one station crash/restart window.
	Crash = faults.Crash
	// Slowdown is a timed per-station processing slowdown window
	// (overload experiments; wire it up via Config.StationDelayHook).
	Slowdown = faults.Slowdown
	// LoadSpike is a timed offered-load multiplier window for workload
	// generators (see FaultInjector.LoadFactor).
	LoadSpike = faults.LoadSpike
	// FaultInjector executes a FaultPlan; its Stats field counts the
	// injected faults.
	FaultInjector = faults.Injector
	// ARQConfig parameterizes the wired link-layer retransmission
	// protocol of the simulated network (Config.WiredARQ).
	ARQConfig = netsim.ARQConfig
)

// NewFaultedWorld builds a deterministic simulated world whose wired
// backbone executes the given fault plan. The injector draws from a
// fork of the world's seeded RNG, so equal (seed, plan) pairs give
// byte-identical chaos. Counter the injected faults with Config.WiredARQ
// (frame loss), Config.Checkpoint + RecoveryGrace + HandoffTimeout
// (station crashes), or measure the unprotected protocol by leaving
// them off — see experiments.E10WiredFaults for the full sweep.
func NewFaultedWorld(cfg Config, plan FaultPlan) (*World, *FaultInjector) {
	k := sim.NewKernel(cfg.Seed)
	inj := faults.New(k, plan)
	cfg.WiredFaults = inj
	w := rdpcore.NewWorldOn(k, cfg)
	inj.Schedule(w.CrashMSS, w.RestartMSS)
	return w, inj
}
