package experiments

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
)

// Opts carries the overrides cmd/rdpbench's -regions/-serial/-workers/
// -e14tier flags put on the two engine sweeps; the zero value is every
// experiment's published shape.
type Opts struct {
	E13Regions []int     // nil = the scale's region sweep
	E13Workers int       // 0 = one worker per core, 1 = serial
	E14Tiers   []E14Tier // nil = the scale's tiers
	E14Workers []int     // nil = the scale's worker sweep
}

// Table is one printed table of an experiment. An entry's first table
// follows the experiment header directly; later ones carry a caption
// line of their own.
type Table struct {
	Caption string
	*metrics.Table
}

// Headline is one seeded scalar that summarizes an experiment — exact
// at a given seed and scale, so TestHeadlinesPinned holds it to
// equality. Guarded headlines collapse to -1 when the guarantee that
// licenses the number is broken, so a pin fails on a wrong protocol and
// not only on a shifted one.
type Headline struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Experiment is one registry entry: everything cmd/rdpbench, the root
// package's BenchmarkExperiments and the pin tests know about an
// experiment.
type Experiment struct {
	// Name selects the entry (rdpbench -exp, benchmark sub-name, pin
	// key); its upper-case form heads the printed block.
	Name string
	// Claim is the paper claim (or extension goal) the tables test.
	Claim string
	// Timed marks tables with wall-clock or RSS columns, which no golden
	// file can pin; the headlines stay exact.
	Timed     bool
	Tables    func(seed int64, sc Scale, o Opts) []Table
	Headlines func(seed int64, sc Scale, o Opts) []Headline
}

// Render writes the entry's block as rdpbench prints it: the header
// line, then every table as aligned text or CSV.
func (e Experiment) Render(w io.Writer, seed int64, sc Scale, o Opts, csv bool) {
	fmt.Fprintf(w, "\n=== %s — %s ===\n\n", strings.ToUpper(e.Name), e.Claim)
	for _, t := range e.Tables(seed, sc, o) {
		if t.Caption != "" {
			fmt.Fprintf(w, "\n%s\n", t.Caption)
		}
		if csv {
			io.WriteString(w, t.CSV())
		} else {
			io.WriteString(w, t.String())
		}
	}
}

// describe builds an entry from one sweep and two views of its result,
// so the tables and the headlines cannot be computed from different
// runs of the experiment.
func describe[R any](name, claim string, run func(int64, Scale, Opts) R,
	tables func(R) []Table, headlines func(R) []Headline) Experiment {
	return Experiment{
		Name:      name,
		Claim:     claim,
		Tables:    func(seed int64, sc Scale, o Opts) []Table { return tables(run(seed, sc, o)) },
		Headlines: func(seed int64, sc Scale, o Opts) []Headline { return headlines(run(seed, sc, o)) },
	}
}

// timed marks an entry whose tables carry host time or memory.
func timed(e Experiment) Experiment {
	e.Timed = true
	return e
}

// noOpts adapts a sweep that takes no overrides.
func noOpts[R any](run func(int64, Scale) R) func(int64, Scale, Opts) R {
	return func(seed int64, sc Scale, _ Opts) R { return run(seed, sc) }
}

func one(t *metrics.Table) []Table               { return []Table{{Table: t}} }
func headline(name string, v float64) []Headline { return []Headline{{name, v}} }

// total sums one integer column of a sweep, the shape of most
// headlines.
func total[R any](rows []R, col func(R) int64) float64 {
	var sum int64
	for _, r := range rows {
		sum += col(r)
	}
	return float64(sum)
}

func fix(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }
func num(v int64) string             { return strconv.FormatInt(v, 10) }
func dur(v time.Duration) string     { return v.Round(time.Millisecond).String() }

// e5Result pairs E5's two sweeps: the static load vector and the
// population shift.
type e5Result struct {
	load  []E5Row
	shift []E5ShiftRow
}

// Registry lists every experiment once, in the order rdpbench prints
// them. Adding an experiment is one entry here beside its eNN_*.go.
var Registry = []Experiment{
	describe("e1", "reliability: every result delivered despite migrations and inactivity (§5)",
		noOpts(E1Reliability),
		func(rows []E1Row) []Table {
			t := metrics.NewTable("residence", "inactive-p", "issued", "delivered", "ratio", "handoffs", "retrans")
			for _, row := range rows {
				t.AddRow(dur(row.MeanResidence), fix(row.InactiveProb, 2), num(row.Issued), num(row.Delivered),
					fix(row.Ratio, 4), num(row.Handoffs), num(row.Retrans))
			}
			return one(t)
		},
		func(rows []E1Row) []Headline {
			min := 1.0
			for _, row := range rows {
				if row.Ratio < min {
					min = row.Ratio
				}
			}
			return headline("min_delivery_ratio", min)
		}),

	describe("e2", "exactly-once needs causal order + ack priority (§5)",
		noOpts(E2ExactlyOnce),
		func(rows []E2Row) []Table {
			t := metrics.NewTable("variant", "issued", "delivered", "duplicates", "violations", "ignored-acks", "stranded")
			for _, row := range rows {
				t.AddRow(row.Name, num(row.Issued), num(row.Delivered), num(row.Duplicates), num(row.Violations), num(row.IgnoredAcks),
					num(row.Stranded))
			}
			return one(t)
		},
		func(rows []E2Row) []Headline {
			return headline("total_duplicates", total(rows, func(r E2Row) int64 { return r.Duplicates }))
		}),

	describe("e3", "retransmissions vanish once residence exceeds t_wired+t_wireless (§5)",
		noOpts(E3RetransmissionThreshold),
		func(rows []E3Row) []Table {
			t := metrics.NewTable("residence", "res/threshold", "results", "retrans", "retrans/result")
			for _, row := range rows {
				t.AddRow(dur(row.MeanResidence), fix(row.ThresholdRatio, 1), num(row.Results), num(row.Retrans), fix(row.RetransPerResult, 4))
			}
			return one(t)
		},
		func(rows []E3Row) []Headline {
			return headline("total_retrans", total(rows, func(r E3Row) int64 { return r.Retrans }))
		}),

	describe("e4", "overhead = one update per migration/reactivation + one relayed ack per result (§5)",
		noOpts(E4Overhead),
		func(rows []E4Row) []Table {
			t := metrics.NewTable("residence", "updates", "predicted", "coverage", "ack-fwds", "predicted", "match")
			for _, row := range rows {
				t.AddRow(dur(row.MeanResidence), num(row.UpdateCurrLocs), num(row.PredictedUpdates), fix(row.UpdateCoverage, 3),
					num(row.AckForwards), num(row.PredictedAcks), fmt.Sprint(row.Match))
			}
			return one(t)
		},
		func(rows []E4Row) []Headline {
			return headline("update_msgs", total(rows, func(r E4Row) int64 { return r.UpdateCurrLocs }))
		}),

	describe("e5", "dynamic proxies balance forwarding load; fixed home agents concentrate it (§1, §4)",
		func(seed int64, sc Scale, _ Opts) e5Result {
			return e5Result{E5LoadBalance(seed, sc), E5DynamicShift(seed, sc)}
		},
		func(r e5Result) []Table {
			t := metrics.NewTable("protocol", "jain-index", "max/mean", "per-station load")
			for _, row := range r.load {
				loads := make([]string, len(row.Loads))
				for i, l := range row.Loads {
					loads[i] = fix(l, 0)
				}
				t.AddRow(row.Protocol, fix(row.Jain, 3), fix(row.MaxOverMean, 2), strings.Join(loads, " "))
			}
			t2 := metrics.NewTable("protocol", "roaming phase", "after shift downtown")
			for _, row := range r.shift {
				t2.AddRow(row.Protocol, fix(row.Phase1Hotspot, 3), fix(row.Phase2Hotspot, 3))
			}
			return []Table{{Table: t},
				{"E5b — population shift: share of forwarding work carried by the 2 hotspot cells", t2}}
		},
		func(r e5Result) []Headline {
			best := 0.0
			for _, row := range r.load {
				if row.Jain > best {
					best = row.Jain
				}
			}
			return headline("max_jain", best)
		}),

	describe("e6", "hand-off state: RDP ships one pref; indirect images grow with load (§4, §5)",
		noOpts(E6HandoffState),
		func(rows []E6Row) []Table {
			t := metrics.NewTable("pending", "rdp B/handoff", "itcp B/handoff", "rdp p95", "itcp p95", "rdp-del", "itcp-del")
			for _, row := range rows {
				t.AddRow(strconv.Itoa(row.PendingRequests), fix(row.RDPBytesPerHO, 0), fix(row.ITCPBytesPerHO, 0),
					dur(row.RDPHandoffP95), dur(row.ITCPHandoffP95), num(row.RDPDelivered), num(row.ITCPDelivered))
			}
			return one(t)
		},
		func(rows []E6Row) []Headline {
			var bytes float64
			for _, row := range rows {
				bytes += row.RDPBytesPerHO
			}
			return headline("rdp_bytes_per_handoff_sum", bytes)
		}),

	describe("e7", "Mobile IP loses datagrams under mobility; upper-layer recovery costs latency (§4)",
		noOpts(E7VsMobileIP),
		func(rows []E7Row) []Table {
			t := metrics.NewTable("protocol", "residence", "issued", "delivered", "ratio", "mean-lat", "p50", "p95", "p99")
			for _, row := range rows {
				t.AddRow(row.Protocol, dur(row.MeanResidence), num(row.Issued), num(row.Delivered),
					fix(row.Ratio, 4), dur(row.MeanLatency), dur(row.P50Latency), dur(row.P95Latency), dur(row.P99Latency))
			}
			return one(t)
		},
		func(rows []E7Row) []Headline {
			return headline("delivered_total", total(rows, func(r E7Row) int64 { return r.Delivered }))
		}),

	describe("e8", "asynchronous subscription notifications reach roaming subscribers (§3)",
		noOpts(E8Subscriptions),
		func(rows []E8Row) []Table {
			t := metrics.NewTable("residence", "subs", "fired", "received", "ratio", "remote-ops", "mean-hops")
			for _, row := range rows {
				t.AddRow(dur(row.MeanResidence), num(row.Subscriptions), num(row.Fired), num(row.Received),
					fix(row.Ratio, 4), num(row.RemoteOps), fix(row.MeanHops, 2))
			}
			return one(t)
		},
		func(rows []E8Row) []Headline {
			return headline("received_total", total(rows, func(r E8Row) int64 { return r.Received }))
		}),

	describe("e9", "ablation: holding results for inactive hosts saves retransmissions (§5 fn.3)",
		noOpts(E9HoldForInactive),
		func(rows []E9Row) []Table {
			t := metrics.NewTable("inactive-p", "hold", "delivered", "retrans", "drops", "held", "mean-lat", "updates")
			for _, row := range rows {
				t.AddRow(fix(row.InactiveProb, 2), fmt.Sprint(row.Hold), num(row.Delivered), num(row.Retrans),
					num(row.WirelessDrops), num(row.HeldResults), dur(row.MeanLatency), num(row.UpdateCurrLocs))
			}
			return one(t)
		},
		func(rows []E9Row) []Headline {
			return headline("retrans_total", total(rows, func(r E9Row) int64 { return r.Retrans }))
		}),

	describe("e10", "wired faults + MSS crashes: ARQ + checkpoint recovery restores exactly-once delivery",
		noOpts(E10WiredFaults),
		func(rows []E10Row) []Table {
			t := metrics.NewTable("loss", "crashes", "recovery", "issued", "delivered", "ratio", "dups", "wired-drops", "rec-resends", "ho-reissues", "ckpt-ops")
			for _, row := range rows {
				t.AddRow(fix(row.Loss, 2), strconv.Itoa(row.Crashes), fmt.Sprint(row.Recovery), num(row.Issued), num(row.Delivered),
					fix(row.Ratio, 4), num(row.Duplicates), num(row.WiredDrops), num(row.RecoveryResends), num(row.HandoffReissues), num(row.CheckpointOps))
			}
			return one(t)
		},
		func(rows []E10Row) []Headline {
			return headline("delivered_total", total(rows, func(r E10Row) int64 { return r.Delivered }))
		}),

	describe("e11", "overload: admission + priorities + backoff plateau at capacity; retries alone collapse",
		noOpts(E11Overload),
		func(rows []E11Row) []Table {
			t := metrics.NewTable("offered-x", "protected", "issued", "delivered", "refusals", "retries", "abandoned", "dups", "goodput%", "p99-lat", "inbox-peak", "shed", "lost-admitted")
			for _, row := range rows {
				t.AddRow(fix(row.OfferedX, 1), fmt.Sprint(row.Protected), num(row.Issued), num(row.Delivered),
					num(row.Refusals), num(row.ClientRetries), num(row.Abandoned), num(row.Duplicates),
					fix(row.GoodputPct, 1), dur(row.P99Latency), num(row.InboxPeak), num(row.NetworkShed), num(row.LostAdmitted))
			}
			return one(t)
		},
		func(rows []E11Row) []Headline {
			return headline("delivered_total", total(rows, func(r E11Row) int64 { return r.Delivered }))
		}),

	describe("e12", "proxy migration bounds forwarding hops and spreads placement; static anchors drift",
		noOpts(E12Migration),
		func(rows []E12Row) []Table {
			t := metrics.NewTable("policy", "issued", "delivered", "ratio", "mean-hops", "worst", "mean-lat", "p95-lat", "migrations", "refused", "mig-msgs", "mig-bytes", "jain", "dups")
			for _, row := range rows {
				t.AddRow(row.Policy, num(row.Issued), num(row.Delivered), fix(row.Ratio, 4), fix(row.MeanHops, 2), num(row.WorstHops),
					dur(row.MeanLatency), dur(row.P95Latency), num(row.Migrations), num(row.Refused),
					num(row.MigMsgs), num(row.MigBytes), fix(row.Jain, 3), num(row.Dups))
			}
			return one(t)
		},
		func(rows []E12Row) []Headline {
			return headline("delivered_total", total(rows, func(r E12Row) int64 { return r.Delivered }))
		}),

	// Delivered totals are exactly worker- and partition-invariant by the
	// engine's determinism guarantee, so the pin holds on any core count.
	timed(describe("e13", "parallel engine: region partitions reproduce the serial headline exactly and scale out",
		func(seed int64, sc Scale, o Opts) []E13Row { return E13Scale(seed, sc, o.E13Regions, o.E13Workers) },
		func(rows []E13Row) []Table {
			t := metrics.NewTable("cells", "mhs", "regions", "issued", "delivered", "ratio", "dups", "missing", "handoffs", "xframes", "wall", "speedup", "headline-eq")
			for _, row := range rows {
				t.AddRow(strconv.Itoa(row.Cells), strconv.Itoa(row.MHs), strconv.Itoa(row.Regions),
					num(row.Issued), num(row.Delivered), fix(row.Ratio, 4), num(row.Duplicates),
					strconv.Itoa(row.Missing), num(row.Handoffs), num(row.CrossFrames),
					dur(row.Wall), fix(row.Speedup, 2), fmt.Sprint(row.HeadlineEq))
			}
			return one(t)
		},
		func(rows []E13Row) []Headline {
			return headline("delivered_total", total(rows, func(r E13Row) int64 { return r.Delivered }))
		})),

	// The headline collapses to -1 whenever a row's full Summary differs
	// from its tier's first row: worker count must never change a byte.
	timed(describe("e14", "multi-core engine: worker count never changes a byte; wall-clock and RSS at scale",
		func(seed int64, sc Scale, o Opts) []E14Row { return E14Scale(seed, sc, o.E14Tiers, o.E14Workers) },
		func(rows []E14Row) []Table {
			t := metrics.NewTable("cells", "mhs", "regions", "workers", "cores", "issued", "delivered",
				"ratio", "dups", "missing", "xframes", "build", "wall", "speedup", "peak-rss", "headline-eq")
			for _, row := range rows {
				t.AddRow(strconv.Itoa(row.Cells), strconv.Itoa(row.MHs), strconv.Itoa(row.Regions),
					strconv.Itoa(row.Workers), strconv.Itoa(row.Cores),
					num(row.Issued), num(row.Delivered), fix(row.Ratio, 4), num(row.Duplicates),
					strconv.Itoa(row.Missing), num(row.CrossFrames), dur(row.Build), dur(row.Wall),
					fix(row.Speedup, 2), metrics.FormatBytes(row.PeakRSS, row.PeakRSSOK), fmt.Sprint(row.HeadlineEq))
			}
			return one(t)
		},
		func(rows []E14Row) []Headline {
			var delivered int64
			for _, row := range rows {
				if !row.HeadlineEq {
					return headline("delivered_total", -1)
				}
				delivered += row.Delivered
			}
			return headline("delivered_total", float64(delivered))
		})),

	// Both headlines sit at the headline grid point (10% loss, 2× the
	// stop-and-wait ceiling): windowed over stop-and-wait goodput, forced
	// to -1 whenever a windowed row loses an admitted request, delivers a
	// duplicate, or has a worse p99 than stop-and-wait; and the windowed
	// p99 result latency itself.
	describe("e15", "windowed wireless transport: coalescing + AIMD window vs stop-and-wait and I-TCP",
		noOpts(E15WindowedTransport),
		func(rows []E15Row) []Table {
			t := metrics.NewTable("loss", "offered-x", "transport", "offered", "delivered", "goodput%", "p99-lat",
				"retrans", "resets", "frames", "msgs/frame", "dups", "lost-admitted")
			t2 := metrics.NewTable("loss", "offered-x", "transport", "rtt-p50", "rtt-p99", "rto-p50", "cwnd-mean", "retrans")
			for _, row := range rows {
				perFrame := 0.0
				if row.Frames > 0 {
					perFrame = float64(row.FrameMsgs) / float64(row.Frames)
				}
				lost := num(row.LostAdmitted)
				if row.LostAdmitted < 0 {
					lost = "-" // the I-TCP baseline has no admission accounting
				}
				t.AddRow(fix(row.Loss, 2), fix(row.OfferedX, 1), row.Transport, num(row.Offered), num(row.Delivered),
					fix(row.GoodputPct, 1), dur(row.P99Latency), num(row.Retransmits), num(row.Resets),
					num(row.Frames), fix(perFrame, 2), num(row.Duplicates), lost)
				if row.CwndMean == 0 { // plain and I-TCP rows carry no WTP link state
					continue
				}
				t2.AddRow(fix(row.Loss, 2), fix(row.OfferedX, 1), row.Transport, dur(row.RttP50), dur(row.RttP99),
					dur(row.RtoP50), fix(row.CwndMean, 2), num(row.Retransmits))
			}
			return []Table{{Table: t},
				{"E15b — per-link transport profile (RTT/RTO/cwnd histograms, WTP rows only)", t2}}
		},
		func(rows []E15Row) []Headline {
			w, s, ok := E15Headline(rows)
			ratio, p99 := -1.0, -1.0
			if ok {
				p99 = float64(w.P99Latency) / float64(time.Millisecond)
				if s.GoodputPct > 0 && w.P99Latency <= s.P99Latency {
					ratio = w.GoodputPct / s.GoodputPct
				}
			}
			for _, row := range rows {
				if row.Transport == "windowed" && (row.LostAdmitted != 0 || row.Duplicates != 0) {
					ratio = -1
				}
			}
			return []Headline{{"guarded_goodput_ratio", ratio}, {"p99_latency_ms", p99}}
		}),

	// The headline is the minimum guarded state reduction across the
	// paired tiers. Each pair's guard (computed by the sweep) licenses the
	// ratio only when both representations delivered the same results
	// with zero losses and duplicates, and the unpaired 1M top tier must
	// be equally clean — any violation forces -1.
	timed(describe("e16", "aggregated location state: O(hosts) → O(cells·servers) station memory at subscriber scale",
		noOpts(E16Aggregation),
		func(rows []E16Row) []Table {
			t := metrics.NewTable("mhs", "stations", "mode", "issued", "delivered", "dups", "missing",
				"state-B/MSS", "signaling", "handoffs", "shared-proxies", "notifs",
				"state-redux", "sig-redux", "peak-rss", "wall")
			for _, row := range rows {
				mode := "faithful"
				if row.Aggregated {
					mode = "aggregated"
				}
				redux, sig := "-", "-"
				if row.Aggregated && row.Reduction != 0 {
					redux, sig = fix(row.Reduction, 1)+"x", fix(row.SigReduction, 1)+"x"
				}
				t.AddRow(strconv.Itoa(row.MHs), strconv.Itoa(row.Stations), mode,
					num(row.Issued), num(row.Delivered), num(row.Duplicates), strconv.Itoa(row.Missing),
					fix(row.PerMSS, 0), num(row.Signaling), num(row.Handoffs),
					num(row.SharedProxies), num(row.Notifications), redux, sig,
					metrics.FormatBytes(row.PeakRSS, row.PeakRSSOK), dur(row.Wall))
			}
			return one(t)
		},
		func(rows []E16Row) []Headline {
			min := -1.0
			for _, row := range rows {
				if row.Missing != 0 || row.Duplicates != 0 {
					return headline("state_reduction_ratio", -1)
				}
				if !row.Aggregated {
					continue
				}
				if row.Reduction < 0 {
					return headline("state_reduction_ratio", -1)
				}
				if row.Reduction > 0 && (min < 0 || row.Reduction < min) {
					min = row.Reduction
				}
			}
			return headline("state_reduction_ratio", min)
		})),

	// The headline is the minimum cache hit ratio across the sweep,
	// forced to -1 whenever any row loses a request or partially delivers
	// a batch.
	describe("e17", "disconnected operation: offline queue + atomic batches + station result cache",
		noOpts(E17Disconnected),
		func(rows []E17Row) []Table {
			t := metrics.NewTable("disc-dur", "crashes", "migration", "issued", "delivered", "lost", "replayed",
				"batches", "b-del", "b-abort", "b-partial", "migrations", "hits", "misses", "stale", "hit-ratio")
			for _, row := range rows {
				t.AddRow(dur(row.DisconnectDur), strconv.Itoa(row.Crashes), fmt.Sprint(row.Migration),
					num(row.Issued), num(row.Delivered), num(row.Lost), num(row.Replayed),
					num(row.Batches), num(row.BatchDelivered), num(row.BatchAborted), num(row.BatchPartial),
					num(row.Migrations), num(row.CacheHits), num(row.CacheMisses), num(row.CacheStale), fix(row.HitRatio, 4))
			}
			return one(t)
		},
		func(rows []E17Row) []Headline {
			min := 1.0
			for _, row := range rows {
				if row.Lost > 0 || row.BatchPartial > 0 {
					return headline("guarded_min_hit_ratio", -1)
				}
				if row.HitRatio < min {
					min = row.HitRatio
				}
			}
			return headline("guarded_min_hit_ratio", min)
		}),

	// The headline is the survivor-scope delivery ratio across the sweep,
	// forced to -1 whenever any row loses a survivor request, delivers a
	// result across an incarnation boundary, partially delivers a batch,
	// or leaks dead-incarnation proxy state past the quiescence sweep.
	describe("e18", "mobile-host crash/amnesia recovery: incarnation-scoped delivery + lease-based orphan reclamation",
		noOpts(E18MHCrash),
		func(rows []E18Row) []Table {
			t := metrics.NewTable("disc-dur", "mss-crash", "migration", "mh-crash", "mh-restart", "issued", "delivered",
				"lost", "orphaned", "x-inc", "reclaimed", "heartbeats", "stale-drops", "journal-drops",
				"migrations", "batches", "b-del", "b-abort", "b-partial", "leaked")
			for _, row := range rows {
				leaked := "none"
				if row.Leaked != "" {
					leaked = row.Leaked
				}
				t.AddRow(dur(row.DisconnectDur), strconv.Itoa(row.MSSCrashes), fmt.Sprint(row.Migration),
					num(row.MHCrashes), num(row.MHRestarts), num(row.Issued), num(row.Delivered),
					num(row.Lost), num(row.Orphaned), num(row.CrossIncDeliveries), num(row.Reclaimed),
					num(row.Heartbeats), num(row.StaleDrops), num(row.DroppedOffline), num(row.Migrations),
					num(row.Batches), num(row.BatchDelivered), num(row.BatchAborted), num(row.BatchPartial), leaked)
			}
			return one(t)
		},
		func(rows []E18Row) []Headline {
			var issued, delivered, orphaned int64
			for _, row := range rows {
				if row.Lost > 0 || row.CrossIncDeliveries > 0 || row.BatchPartial > 0 || row.Leaked != "" {
					return headline("guarded_survivor_delivery", -1)
				}
				issued += row.Issued
				delivered += row.Delivered
				orphaned += row.Orphaned
			}
			if survivors := issued - orphaned; survivors > 0 {
				return headline("guarded_survivor_delivery", float64(delivered)/float64(survivors))
			}
			return headline("guarded_survivor_delivery", -1)
		}),
}
