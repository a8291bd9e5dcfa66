package experiments

import (
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/rdpcore"
	"repro/internal/sidam"
)

// E16 — aggregated location state: the tentpole measurement for the
// O(hosts) → O(cells·servers) station-memory claim. The workload is the
// SIDAM notification scenario at subscriber scale: every mobile host in
// a cell subscribes to the same region's congestion feed, one updater
// per region later fires the notification, and ~10% of subscribers
// hand off between subscribing and being notified. The wired backbone
// is one causal group of stations + servers (984 wide at the top tier)
// and runs with causal order on, as the paper's assumption 1 requires.
//
// Each tier runs twice — paper-faithful per-MH proxies vs the
// aggregated representation with shared group proxies (GroupTopic =
// sidam.SubscribeTopic) — on the identical seed and schedule, and the
// rows report:
//
//   - StateBytes / PerMSS: the modeled station state footprint
//     (rdpcore.StateBytes) at the subscribed peak — after the hand-off
//     wave, before the notification — total and per station. The
//     headline Reduction on the aggregated row is the faithful
//     PerMSS over the aggregated PerMSS, and is guarded: it is only
//     computed (-1 otherwise) when both rows delivered exactly the
//     same results with zero losses and duplicates, so a representation
//     that cheats on delivery can never report a ratio.
//   - Signaling: the hand-off + fan-out signaling total
//     (2·Handoffs + UpdateCurrLocs + GroupUpdateLocs + AckForwards +
//     GroupAckForwards). Faithful hand-offs re-signal the proxy per
//     host and relay every delivery ack individually; aggregated
//     hand-offs coalesce into delta-encoded group messages under
//     AggFlushDelay. SigReduction is guarded the same way.
//   - Outstanding: the outstanding-request ledger (identical in both
//     modes by construction — workload state, not representation
//     state), reported so the comparison's scope is visible.
//
// The top tier (1M subscribers) runs aggregated-only: the point of the
// aggregation is exactly that the faithful representation does not fit
// that scale comfortably, and the row's PeakRSS pins the aggregated
// engine inside the E14 memory envelope.

// E16 workload schedule (virtual time). Subscribing spreads over the
// first second, the hand-off wave runs at 2s, state is measured at
// 3.4s, the notification wave starts at 3.5s — staggered one region
// per 5ms, because a single-instant wave would put every notification
// in flight on the wired backbone simultaneously, and each in-flight
// message holds a causal stamp linear in the wired group size (~16KB at
// the top tier), which would count toward peak RSS — and a second
// (no-op for subscriptions) update wave confirms the drained groups
// still serve. Virtual time is free, so the stagger costs nothing real.
const (
	e16SubscribeSpread = 1024 * time.Millisecond
	e16MigrateAt       = 2 * time.Second
	e16MigrateSpread   = 128 * time.Millisecond
	e16MeasureAt       = 3400 * time.Millisecond
	e16Update1At       = 3500 * time.Millisecond
	e16UpdateStagger   = 5 * time.Millisecond
	e16Drain           = 1500 * time.Millisecond

	// Subscription threshold and the two update values: baselines are
	// seeded in [0, 60], so |95-baseline| ≥ 35 ≥ 30 always fires the
	// first wave, and |10-95| = 85 would fire anything left.
	e16Threshold = 30
	e16Update1   = 95
	e16Update2   = 10
)

// e16Update2At and e16HorizonFor place the second wave and the end of
// the run after the staggered first wave has fully drained.
func e16Update2At(stations int) time.Duration {
	return e16Update1At + time.Duration(stations)*e16UpdateStagger + e16Drain
}

func e16HorizonFor(stations int) time.Duration {
	return e16Update2At(stations) + time.Duration(stations)*e16UpdateStagger + e16Drain
}

// E16Row is one (tier, representation) measurement.
type E16Row struct {
	MHs        int
	Stations   int
	Aggregated bool

	Issued     int64
	Delivered  int64
	Duplicates int64
	Missing    int

	// StateBytes is the modeled station state at the subscribed peak;
	// PerMSS is StateBytes / Stations. Outstanding is the (mode-
	// invariant) outstanding-ledger footprint at the same instant.
	StateBytes  int64
	PerMSS      float64
	Outstanding int64

	// Signaling is the hand-off + fan-out signaling message total (see
	// file comment); Handoffs is the raw hand-off count inside it.
	Signaling int64
	Handoffs  int64

	// SharedProxies / Notifications show the collapse on the two fixed
	// sides: group proxies hosted (0 when faithful) and TIS-side
	// subscription firings (per-host when faithful, per-group when
	// aggregated).
	SharedProxies int64
	Notifications int64

	// Reduction / SigReduction are set on aggregated rows only: the
	// faithful sibling's PerMSS (resp. Signaling) over this row's, or
	// -1 when the guard fails (delivery counts differ or anything was
	// lost or duplicated). 0 on faithful rows and the unpaired top tier.
	Reduction    float64
	SigReduction float64

	// PeakRSS is the process resident high-water mark after the row
	// (monotone across rows; meaningful on the last, largest row).
	PeakRSS   uint64
	PeakRSSOK bool

	Wall time.Duration
}

// e16Stations sizes the cell grid for a tier: one station per ~1k
// subscribers, floored at 8 (the base topology) and capped at 1024.
func e16Stations(mhs int) int {
	s := mhs / 1024
	if s < 8 {
		s = 8
	}
	if s > 1024 {
		s = 1024
	}
	return s
}

// E16Run builds one tier in one representation and drives the
// subscription workload to quiescence.
func E16Run(seed int64, mhs int, agg bool) E16Row {
	stations := e16Stations(mhs)
	cfg := rdpcore.DefaultConfig()
	cfg.Seed = seed
	cfg.NumMSS = stations
	cfg.NumServers = 8
	cfg.WiredLatency = netsim.Constant(5 * time.Millisecond)
	cfg.WirelessLatency = netsim.Constant(20 * time.Millisecond)
	cfg.AggregatedState = agg
	if agg {
		cfg.GroupTopic = sidam.SubscribeTopic
		cfg.AggFlushDelay = 50 * time.Millisecond
	}
	t0 := time.Now()
	w := rdpcore.NewWorld(cfg)
	net := sidam.Install(w, sidam.Config{
		Regions:           uint32(stations),
		LocalProc:         netsim.Constant(20 * time.Millisecond),
		HopProc:           netsim.Constant(5 * time.Millisecond),
		InitialCongestion: 60,
	})

	// Subscribers 1..mhs deal round-robin over the stations; each
	// subscribes to its home station's region at the region's owning
	// TIS. Updaters mhs+1..mhs+stations (one per region) fire the two
	// update waves through private proxies (SubscribeTopic declines
	// updates).
	type pendingReq struct {
		mh  ids.MH
		req ids.RequestID
	}
	reqs := make([]pendingReq, 0, mhs+2*stations)
	stationOf := func(i int) ids.MSS { return ids.MSS(1 + (i-1)%stations) }
	regionOf := func(s ids.MSS) uint32 { return uint32(s - 1) }

	subBuckets := make([][]ids.MH, int(e16SubscribeSpread/time.Millisecond))
	migBuckets := make([][]ids.MH, int(e16MigrateSpread/time.Millisecond))
	for i := 1; i <= mhs; i++ {
		id := ids.MH(i)
		w.AddMH(id, stationOf(i))
		subBuckets[i%len(subBuckets)] = append(subBuckets[i%len(subBuckets)], id)
		if i%10 == 0 {
			migBuckets[(i/10)%len(migBuckets)] = append(migBuckets[(i/10)%len(migBuckets)], id)
		}
	}
	for off, bucket := range subBuckets {
		bucket := bucket
		w.Kernel.Defer(time.Duration(off)*time.Millisecond, func() {
			for _, id := range bucket {
				s := stationOf(int(id))
				region := regionOf(s)
				mh := w.MHs[id]
				r := mh.IssueRequest(net.Owner(region), sidam.EncodeSubscribe(region, e16Threshold))
				reqs = append(reqs, pendingReq{mh: id, req: r})
			}
		})
	}
	// The hand-off wave: every tenth subscriber moves to the next cell
	// while its subscription is still unanswered, so the pending fan-out
	// must chase it.
	for off, bucket := range migBuckets {
		bucket := bucket
		w.Kernel.Defer(e16MigrateAt+time.Duration(off)*time.Millisecond, func() {
			for _, id := range bucket {
				s := stationOf(int(id))
				w.Migrate(id, ids.MSS(1+int(s)%stations))
			}
		})
	}
	for j := 1; j <= stations; j++ {
		id := ids.MH(mhs + j)
		s := ids.MSS(j)
		w.AddMH(id, s)
		region := regionOf(s)
		stag := time.Duration(j-1) * e16UpdateStagger
		for _, uw := range []struct {
			at    time.Duration
			value int32
		}{{e16Update1At + stag, e16Update1}, {e16Update2At(stations) + stag, e16Update2}} {
			wave, value := uw.at, uw.value
			w.Kernel.Defer(wave, func() {
				mh := w.MHs[id]
				r := mh.IssueRequest(net.Owner(region), sidam.EncodeUpdate(region, value))
				reqs = append(reqs, pendingReq{mh: id, req: r})
			})
		}
	}

	var stateBytes, outstanding int64
	w.Kernel.Defer(e16MeasureAt, func() {
		stateBytes = w.StateBytes()
		outstanding = w.OutstandingBytes()
	})
	w.RunUntil(e16HorizonFor(stations))

	missing := 0
	for _, pr := range reqs {
		if !w.MHs[pr.mh].Seen(pr.req) {
			missing++
		}
	}
	rss, rssOK := metrics.PeakRSS()
	st := w.Stats
	return E16Row{
		MHs:        mhs,
		Stations:   stations,
		Aggregated: agg,
		Issued:     st.RequestsIssued.Value(),
		Delivered:  st.ResultsDelivered.Value(),
		Duplicates: st.DuplicateDeliveries.Value(),
		Missing:    missing,

		StateBytes:  stateBytes,
		PerMSS:      float64(stateBytes) / float64(stations),
		Outstanding: outstanding,

		Signaling: 2*st.Handoffs.Value() + st.UpdateCurrLocs.Value() +
			st.GroupUpdateLocs.Value() + st.AckForwards.Value() + st.GroupAckForwards.Value(),
		Handoffs: st.Handoffs.Value(),

		SharedProxies: st.SharedProxies.Value(),
		Notifications: net.Stats.Notifications.Value(),

		PeakRSS:   rss,
		PeakRSSOK: rssOK,
		Wall:      time.Since(t0),
	}
}

// E16Tiers returns the subscriber counts swept per scale. The bool is
// whether the aggregated-only 1M top tier rides along.
func E16Tiers(sc Scale) ([]int, bool) {
	if sc.MHs < DefaultScale().MHs {
		return []int{1000}, false
	}
	return []int{1000, 10000, 100000}, true
}

// E16Aggregation runs the sweep: each tier in both representations
// (pairing the rows and computing the guarded reductions on the
// aggregated one), then the aggregated-only 1M tier.
func E16Aggregation(seed int64, sc Scale) []E16Row {
	tiers, top := E16Tiers(sc)
	var out []E16Row
	for _, mhs := range tiers {
		f := E16Run(seed, mhs, false)
		a := E16Run(seed, mhs, true)
		if f.Missing == 0 && a.Missing == 0 &&
			f.Delivered == a.Delivered && f.Duplicates == 0 && a.Duplicates == 0 &&
			a.PerMSS > 0 {
			a.Reduction = f.PerMSS / a.PerMSS
			if a.Signaling > 0 {
				a.SigReduction = float64(f.Signaling) / float64(a.Signaling)
			}
		} else {
			a.Reduction = -1
			a.SigReduction = -1
		}
		out = append(out, f, a)
	}
	if top {
		out = append(out, E16Run(seed, 1000000, true))
	}
	return out
}
