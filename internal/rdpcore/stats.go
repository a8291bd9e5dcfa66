// Package rdpcore implements the Result Delivery Protocol itself: the
// proxy object and its life-cycle, the proxy reference (pref), the
// mobile support station (MSS) and mobile host (MH) state machines, the
// Hand-off protocol, and the World that wires them onto the simulated
// network substrates.
//
// The package follows the paper's §2–§3 closely; doc comments cite the
// relevant section for every protocol rule.
package rdpcore

import (
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
)

// Stats aggregates every protocol-level measurement the experiments
// report. One Stats value is shared by all nodes of a World.
type Stats struct {
	// RequestsIssued counts client requests created at MHs.
	RequestsIssued metrics.Counter
	// RequestRetries counts client-side request retransmissions (the
	// QRPC-style reliable-sending shim; see World.Config.RequestTimeout).
	RequestRetries metrics.Counter
	// ResultsDelivered counts first-time deliveries of results at MHs.
	ResultsDelivered metrics.Counter
	// DuplicateDeliveries counts redundant result deliveries at MHs
	// (at-least-once slack; §5 predicts 0 under causal order + ack
	// priority + reliable wireless).
	DuplicateDeliveries metrics.Counter
	// Retransmissions counts proxy re-forwards of a result that had
	// already been forwarded once (§5 threshold analysis, E3).
	Retransmissions metrics.Counter
	// UpdateCurrLocs counts update_currentLoc messages (overhead term 1
	// of §5: one per migration or reactivation of an MH with a proxy).
	UpdateCurrLocs metrics.Counter
	// AckForwards counts Ack messages relayed respMss -> proxy (overhead
	// term 2 of §5: one per acknowledged result).
	AckForwards metrics.Counter
	// Handoffs counts completed Hand-off protocol runs (deregack
	// processed at the new MSS).
	Handoffs metrics.Counter
	// Reactivations counts same-cell greet messages (inactive -> active).
	Reactivations metrics.Counter
	// ProxiesCreated and ProxiesDeleted track the proxy life-cycle.
	ProxiesCreated metrics.Counter
	ProxiesDeleted metrics.Counter
	// HeldResults counts results an MSS held for an inactive MH instead
	// of attempting wireless delivery (§5 footnote 3 optimization).
	HeldResults metrics.Counter
	// OrphanMessages counts messages that reached a node with no state to
	// process them (stale forwards after proxy deletion, requests from
	// unregistered MHs, ...). They are dropped.
	OrphanMessages metrics.Counter
	// IgnoredAcks counts MH acks dropped by an MSS that had already
	// received a dereg for that MH (§3.1).
	IgnoredAcks metrics.Counter
	// Violations counts internal invariant breaches (World.violate, which
	// also records the first few). It must stay zero; experiments assert
	// on it.
	Violations metrics.Counter
	// WirelessDrops counts frames lost on the wireless layer (random
	// loss, migration or inactivity at delivery time).
	WirelessDrops metrics.Counter
	// WiredDrops counts frames lost on the wired layer: injected faults,
	// partitions, and frames addressed to a crashed station. Zero under
	// the paper's assumption 1; E10 removes it.
	WiredDrops metrics.Counter
	// MSSCrashes and MSSRestarts count station outages executed by the
	// World (E10's failure model; the paper assumes MSSs never fail).
	MSSCrashes  metrics.Counter
	MSSRestarts metrics.Counter
	// RecoveryResends counts messages a restarted station re-issued while
	// replaying its stable-store journal (server re-requests and result
	// re-forwards).
	RecoveryResends metrics.Counter
	// HandoffReissues counts Dereg retransmissions sent by a new station
	// whose hand-off timed out (peer-outage detection; see
	// Config.HandoffTimeout).
	HandoffReissues metrics.Counter
	// HandoffStateBytes accumulates the wire size of hand-off state
	// transfers (DeregAck for RDP; ImageTransfer for the I-TCP baseline),
	// the E6 measurement.
	HandoffStateBytes metrics.Counter
	// BusyRefusals counts requests refused at admission control with a
	// busy-NACK (overload protection, E11). Refused requests never enter
	// the delivery guarantee; they are the protocol's explicit,
	// accounted casualty under overload.
	BusyRefusals metrics.Counter
	// BusyRetries counts client re-issues of a busy-refused request
	// after backoff (see Config.BusyRetryBase).
	BusyRetries metrics.Counter
	// RequestsAbandoned counts requests whose per-request deadline
	// expired before any admission (see Config.RequestDeadline). Only
	// never-admitted requests can be abandoned.
	RequestsAbandoned metrics.Counter
	// NetworkShed counts frames shed by bounded link queues on either
	// substrate (netsim.EventShed).
	NetworkShed metrics.Counter
	// MigOffers counts proxy-migration offers sent by proxy hosts;
	// MigRefusals counts offers the target refused (not responsible,
	// inbox past the high-watermark, or no load improvement);
	// MigCompleted counts finished migration episodes (tombstone
	// garbage-collected at the old host). See internal/proxymig and E12.
	MigOffers    metrics.Counter
	MigRefusals  metrics.Counter
	MigCompleted metrics.Counter
	// MigMessages counts migration-control messages put on the wired
	// network (mig_offer, mig_commit, mig_state, pref_redirect, mig_gc)
	// — the E12 overhead measurement. MigStateBytes accumulates the wire
	// size of the mig_state transfers alone.
	MigMessages   metrics.Counter
	MigStateBytes metrics.Counter
	// PrefRedirects counts pref rebinds applied at stations (a stale
	// proxy reference updated to the migrated proxy's new identity).
	PrefRedirects metrics.Counter
	// ForwardHops sums the topological distance (Config.StationDistance)
	// of every proxy result forward; ForwardCount counts those forwards
	// and ForwardHopMax tracks the worst single path. Mean forwarding
	// hops = ForwardHops/ForwardCount — the E12 route-stretch metric.
	ForwardHops   metrics.Counter
	ForwardCount  metrics.Counter
	ForwardHopMax metrics.Peak

	// CacheHits, CacheMisses and CacheStale count result-cache lookups at
	// proxy hosts (internal/dcache, E17): a hit answers a repeated query
	// at the MSS without a server round trip, a stale lookup found an
	// entry past its TTL (evicted, re-executed). CacheEvictions counts
	// entries pushed out by the byte/entry budget.
	CacheHits      metrics.Counter
	CacheMisses    metrics.Counter
	CacheStale     metrics.Counter
	CacheEvictions metrics.Counter
	// OfflineQueued counts requests journaled by a disconnected MH
	// instead of being transmitted; OfflineReplayed counts queued
	// requests re-issued in order on reconnection (E17).
	OfflineQueued   metrics.Counter
	OfflineReplayed metrics.Counter
	// BatchesOpened/Committed/Aborted track atomic request batches at
	// proxies (E17). BatchResultsWithheld counts member results the proxy
	// held back because their batch had not released yet — each one is a
	// partial delivery prevented.
	BatchesOpened        metrics.Counter
	BatchesCommitted     metrics.Counter
	BatchesAborted       metrics.Counter
	BatchResultsWithheld metrics.Counter

	// MHCrashes and MHRestarts count mobile-host outages executed by the
	// World (E18's failure model: a crash wipes the host's volatile
	// state — seen-set, outstanding table, in-flight batches, timers —
	// and a restart reboots it under a fresh incarnation).
	MHCrashes  metrics.Counter
	MHRestarts metrics.Counter
	// StaleIncarnationDrops counts results (and batch traffic) refused
	// because they belonged to a dead incarnation of their MH: the
	// amnesia guard that keeps a rebooted host from receiving answers
	// its previous self asked for. Each drop is acked back to the proxy
	// so the orphaned request state is scrubbed, not retried forever.
	StaleIncarnationDrops metrics.Counter
	// LeaseHeartbeats counts proxy-lease renewals processed at proxy
	// hosts; ProxiesReclaimed counts proxies garbage-collected by the
	// lease GC because their owner's incarnation died (no heartbeat for
	// Config.LeaseTTL, or a heartbeat announcing a newer incarnation
	// left the proxy empty).
	LeaseHeartbeats  metrics.Counter
	ProxiesReclaimed metrics.Counter
	// OfflineDroppedStale counts offline-journal entries skipped at
	// replay because they were journaled by a dead incarnation (E18
	// scoping of the E17 offline queue).
	OfflineDroppedStale metrics.Counter
	// JournalTruncations counts checksummed-journal recoveries that
	// found a corrupt record and truncated the journal there (stable
	// store hardening; see internal/rdpcore/journal.go).
	JournalTruncations metrics.Counter

	// SharedProxies counts group proxies created (E16: one per
	// (cell, server, topic) that sees a groupable request);
	// SharedJoins counts member subscriptions into group entries (the
	// aggregated analogue of per-request proxy registrations);
	// GroupFanouts counts result forwards issued by group proxies (each
	// serves one member from the entry's single server round-trip).
	SharedProxies metrics.Counter
	SharedJoins   metrics.Counter
	GroupFanouts  metrics.Counter
	// GroupUpdateLocs and GroupAckForwards count the coalesced hand-off
	// signaling messages (E16): each replaces up to |members| faithful
	// update_currentLoc / Ack-forward messages. The E16 signaling
	// metric is 2·Handoffs + UpdateCurrLocs + GroupUpdateLocs +
	// AckForwards + GroupAckForwards.
	GroupUpdateLocs  metrics.Counter
	GroupAckForwards metrics.Counter

	// WTPRetransmits counts windowed-transport frame retransmissions
	// (timeout and sack-gap fast retransmissions) on the wireless
	// downlinks; WTPResets counts links that exhausted MaxRetries and
	// dropped their queue (the silent-loss fallback the proxy-level
	// recovery machinery absorbs); WTPFrames counts first transmissions
	// of coalesced data frames and WTPFrameMsgs the messages they
	// carried, so WTPFrameMsgs/WTPFrames is the mean coalescing factor.
	// All zero unless Config.WirelessWTP is enabled (E15).
	WTPRetransmits metrics.Counter
	WTPResets      metrics.Counter
	WTPFrames      metrics.Counter
	WTPFrameMsgs   metrics.Counter

	// InboxPeak tracks the deepest station inbox seen anywhere: the
	// queue-growth measurement of E11 (unbounded growth past saturation
	// without admission control; bounded by the high-watermark with it).
	InboxPeak metrics.Peak

	// ResultLatency measures issue -> first wireless delivery per request.
	ResultLatency metrics.Histogram
	// HandoffLatency measures greet -> deregack completion per hand-off.
	HandoffLatency metrics.Histogram
	// WTPRtt and WTPRto record the windowed transport's Karn-valid
	// round-trip samples and the smoothed RTO after each; WTPCwnd
	// records the congestion window (in frames, as a Duration so the
	// histogram reservoir applies) after every change (E15).
	WTPRtt  metrics.Histogram
	WTPRto  metrics.Histogram
	WTPCwnd metrics.Histogram

	// ProxySeconds integrates, per station, virtual time spent hosting
	// proxies (E5 load metric). ProxyCreations counts proxy placements
	// per station; ResultForwards counts result forwards issued by
	// proxies per hosting station.
	ProxySeconds   map[ids.MSS]time.Duration
	ProxyCreations map[ids.MSS]int64
	ResultForwards map[ids.MSS]int64
}

// NewStats returns an initialized Stats.
func NewStats() *Stats {
	return &Stats{
		ProxySeconds:   make(map[ids.MSS]time.Duration),
		ProxyCreations: make(map[ids.MSS]int64),
		ResultForwards: make(map[ids.MSS]int64),
	}
}

// HostLoads returns the per-station proxy-seconds for the given stations
// as a float vector (for fairness computations), in the order given.
func (s *Stats) HostLoads(stations []ids.MSS) []float64 {
	out := make([]float64, len(stations))
	for i, m := range stations {
		out[i] = float64(s.ProxySeconds[m])
	}
	return out
}

// ForwardLoads returns per-station result-forward counts as floats.
func (s *Stats) ForwardLoads(stations []ids.MSS) []float64 {
	out := make([]float64, len(stations))
	for i, m := range stations {
		out[i] = float64(s.ResultForwards[m])
	}
	return out
}
