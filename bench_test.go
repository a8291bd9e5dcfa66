// Benchmarks regenerating the paper's evaluation: one Benchmark per
// experiment table (DESIGN.md E1–E13, E17) plus the Figure 3/4 and
// migration scenario replays. Each iteration runs the full experiment at test scale and
// reports its headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// both exercises every experiment end-to-end and surfaces the measured
// shape next to the timing. cmd/rdpbench prints the full tables at
// standard scale; EXPERIMENTS.md records them against the paper.
package rdp_test

import (
	"testing"

	rdp "repro"
	"repro/internal/experiments"
)

// benchScale keeps one experiment iteration in the tens-of-milliseconds
// range so -bench runs stay pleasant.
func benchScale() experiments.Scale {
	return experiments.SmallScale()
}

// BenchmarkE1Reliability regenerates E1: delivery ratio across the
// mobility/inactivity sweep. Reported metric: delivered/issued (must be
// 1.0).
func BenchmarkE1Reliability(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows := experiments.E1Reliability(int64(i+1), benchScale())
		var issued, delivered int64
		for _, r := range rows {
			issued += r.Issued
			delivered += r.Delivered
		}
		if issued > 0 {
			ratio = float64(delivered) / float64(issued)
		}
	}
	b.ReportMetric(ratio, "delivery-ratio")
}

// BenchmarkE2ExactlyOnce regenerates E2: duplicates under the full
// protocol vs the causal/ack-priority ablations. Reported metrics:
// duplicates of the full protocol (want 0) and of the no-causal
// ablation (want > 0).
func BenchmarkE2ExactlyOnce(b *testing.B) {
	var fullDup, ablDup float64
	for i := 0; i < b.N; i++ {
		rows := experiments.E2ExactlyOnce(int64(i+1), benchScale())
		fullDup = float64(rows[0].Duplicates)
		ablDup = float64(rows[1].Duplicates + rows[1].Violations)
	}
	b.ReportMetric(fullDup, "full-duplicates")
	b.ReportMetric(ablDup, "ablation-anomalies")
}

// BenchmarkE3RetransmissionThreshold regenerates E3: the §5 threshold.
// Reported metrics: retransmissions per result well below and well
// above the t_wired+t_wireless boundary.
func BenchmarkE3RetransmissionThreshold(b *testing.B) {
	var below, above float64
	for i := 0; i < b.N; i++ {
		rows := experiments.E3RetransmissionThreshold(int64(i+1), benchScale())
		below = rows[0].RetransPerResult
		above = rows[len(rows)-1].RetransPerResult
	}
	b.ReportMetric(below, "retrans/result-below")
	b.ReportMetric(above, "retrans/result-above")
}

// BenchmarkE4Overhead regenerates E4: the §5 overhead formula. Reported
// metric: update coverage against the hand-offs+reactivations bound
// (want ~1.0) — the ack term matches exactly and is asserted in tests.
func BenchmarkE4Overhead(b *testing.B) {
	var coverage float64
	for i := 0; i < b.N; i++ {
		rows := experiments.E4Overhead(int64(i+1), benchScale())
		coverage = rows[0].UpdateCoverage
	}
	b.ReportMetric(coverage, "update-coverage")
}

// BenchmarkE5LoadBalance regenerates E5: forwarding-load fairness.
// Reported metrics: Jain index for RDP (→1) and for shared-home Mobile
// IP (→1/N).
func BenchmarkE5LoadBalance(b *testing.B) {
	var rdpJain, mipJain float64
	for i := 0; i < b.N; i++ {
		rows := experiments.E5LoadBalance(int64(i+1), benchScale())
		rdpJain = rows[0].Jain
		mipJain = rows[1].Jain
	}
	b.ReportMetric(rdpJain, "jain-rdp")
	b.ReportMetric(mipJain, "jain-mobileip")
}

// BenchmarkE6HandoffState regenerates E6: hand-off state volume.
// Reported metrics: bytes per hand-off at 50 pending results for RDP
// (flat, one pref) and the I-TCP-style image baseline (linear).
func BenchmarkE6HandoffState(b *testing.B) {
	var rdpBytes, itcpBytes float64
	for i := 0; i < b.N; i++ {
		rows := experiments.E6HandoffState(int64(i+1), benchScale())
		last := rows[len(rows)-1]
		rdpBytes = last.RDPBytesPerHO
		itcpBytes = last.ITCPBytesPerHO
	}
	b.ReportMetric(rdpBytes, "rdp-B/handoff")
	b.ReportMetric(itcpBytes, "itcp-B/handoff")
}

// BenchmarkE7VsMobileIP regenerates E7: delivery under mobility.
// Reported metrics: delivery ratio of RDP (1.0) and of plain Mobile IP
// (<1) at the fastest mobility level.
func BenchmarkE7VsMobileIP(b *testing.B) {
	var rdpRatio, mipRatio float64
	for i := 0; i < b.N; i++ {
		rows := experiments.E7VsMobileIP(int64(i+1), benchScale())
		for _, r := range rows {
			if r.MeanResidence != rows[0].MeanResidence {
				continue
			}
			switch r.Protocol {
			case "RDP":
				rdpRatio = r.Ratio
			case "MobileIP":
				mipRatio = r.Ratio
			}
		}
	}
	b.ReportMetric(rdpRatio, "ratio-rdp")
	b.ReportMetric(mipRatio, "ratio-mobileip")
}

// BenchmarkE8Subscriptions regenerates E8: SIDAM subscription
// notifications to roaming subscribers. Reported metric: notifications
// received / fired (want 1.0).
func BenchmarkE8Subscriptions(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows := experiments.E8Subscriptions(int64(i+1), benchScale())
		var fired, received int64
		for _, r := range rows {
			fired += r.Fired
			received += r.Received
		}
		if fired > 0 {
			ratio = float64(received) / float64(fired)
		}
	}
	b.ReportMetric(ratio, "notify-ratio")
}

// BenchmarkFigure3Replay regenerates the Figure 3 worked example
// (trace-validated in internal/rdpcore's scenario tests).
func BenchmarkFigure3Replay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := experiments.ReplayFigure3(nil)
		if w.Stats.ResultsDelivered.Value() != 1 {
			b.Fatal("figure 3 replay did not deliver")
		}
	}
}

// BenchmarkFigure4Replay regenerates the Figure 4 worked example.
func BenchmarkFigure4Replay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := experiments.ReplayFigure4(nil)
		if w.Stats.ResultsDelivered.Value() != 3 {
			b.Fatal("figure 4 replay did not deliver")
		}
	}
}

// BenchmarkE12Migration regenerates E12: route stretch and placement
// fairness under proxy migration on the ring. Reported metrics: mean
// forwarding hops with the proxy fixed vs migrating at hop threshold 1,
// and duplicates across all RDP variants (must be 0 — migration must
// not cost exactly-once).
func BenchmarkE12Migration(b *testing.B) {
	var fixedHops, k1Hops, dups float64
	for i := 0; i < b.N; i++ {
		rows := experiments.E12Migration(int64(i+1), benchScale())
		dups = 0
		for _, r := range rows {
			switch r.Policy {
			case "RDP fixed proxy":
				fixedHops = r.MeanHops
			case "RDP hop k=1":
				k1Hops = r.MeanHops
			}
			if r.Policy != "MobileIP home=start" {
				dups += float64(r.Dups)
			}
		}
	}
	b.ReportMetric(fixedHops, "mean-hops-fixed")
	b.ReportMetric(k1Hops, "mean-hops-k1")
	b.ReportMetric(dups, "rdp-duplicates")
}

// BenchmarkMigrationReplay regenerates the mig1 worked example
// (trace-pinned in internal/experiments' golden tests).
func BenchmarkMigrationReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := experiments.ReplayMigration1(nil)
		if w.Stats.MigCompleted.Value() != 1 {
			b.Fatal("migration replay did not complete a migration")
		}
	}
}

// BenchmarkE17Disconnect regenerates E17 at bench scale: disconnection
// windows × MSS crashes × proxy migration over the offline queue,
// atomic batches and the station result cache. Reported metrics: total
// lost requests plus partially-delivered batches across the sweep (must
// be 0), total clean batch aborts (the stranded batches on the long
// rows — must be > 0, proving the deadline path runs), and the minimum
// cache hit ratio (must be ≥ 0.5 on the repeated-query workload).
func BenchmarkE17Disconnect(b *testing.B) {
	var lostPartial, aborted, minHit float64
	for i := 0; i < b.N; i++ {
		lostPartial, aborted, minHit = 0, 0, 1
		for _, r := range experiments.E17Disconnected(int64(i+1), benchScale()) {
			lostPartial += float64(r.Lost + r.BatchPartial)
			aborted += float64(r.BatchAborted)
			if r.HitRatio < minHit {
				minHit = r.HitRatio
			}
		}
	}
	b.ReportMetric(lostPartial, "lost+partial")
	b.ReportMetric(aborted, "clean-aborts")
	b.ReportMetric(minHit, "min-hit-ratio")
}

// BenchmarkE18MHCrash regenerates E18 at bench scale: mobile-host
// crash/amnesia windows × disconnections × MSS crashes × proxy
// migration under incarnation-scoped delivery and lease reclamation.
// Reported metrics: survivor-scope losses plus cross-incarnation
// deliveries plus partial batches across the sweep (must be 0), total
// proxies reclaimed by the lease GC (must be > 0, proving orphan
// reclamation runs), and total stale-incarnation drops (the scrub
// machinery engaging).
func BenchmarkE18MHCrash(b *testing.B) {
	var violations, reclaimed, staleDrops float64
	for i := 0; i < b.N; i++ {
		violations, reclaimed, staleDrops = 0, 0, 0
		for _, r := range experiments.E18MHCrash(int64(i+1), benchScale()) {
			violations += float64(r.Lost + r.CrossIncDeliveries + r.BatchPartial)
			if r.Leaked != "" {
				violations++
			}
			reclaimed += float64(r.Reclaimed)
			staleDrops += float64(r.StaleDrops)
		}
	}
	b.ReportMetric(violations, "violations")
	b.ReportMetric(reclaimed, "reclaimed")
	b.ReportMetric(staleDrops, "stale-drops")
}

// BenchmarkTCPRoundTrip measures one request→result round trip over the
// real-socket transport (internal/tcpnet): MH radio frame to the
// station's TCP endpoint, causally stamped wired frame to the server,
// and the result back down. Not a paper experiment — it quantifies the
// cost of the authors' planned process-based deployment relative to the
// simulated substrate.
func BenchmarkTCPRoundTrip(b *testing.B) {
	rt := rdp.NewLiveRuntime(1)
	cfg := rdp.DefaultConfig()
	cfg.ServerProc = rdp.Constant(0)
	world, net, err := rdp.NewTCPWorld(rt, cfg)
	if err != nil {
		b.Fatalf("NewTCPWorld: %v", err)
	}
	defer net.Close()
	rt.Start()
	defer rt.Stop()
	results := make(chan struct{}, 1)
	rt.Do(func() {
		mh := world.AddMH(1, 1)
		mh.OnResult(func(_ rdp.RequestID, _ []byte, dup bool) {
			if !dup {
				results <- struct{}{}
			}
		})
	})
	payload := []byte("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Do(func() { world.MHs[1].IssueRequest(1, payload) })
		<-results
	}
}

// BenchmarkE9HoldForInactive regenerates the §5 footnote 3 ablation.
// Reported metrics: proxy retransmissions with the optimization off and
// on at 50% inactivity.
func BenchmarkE9HoldForInactive(b *testing.B) {
	var off, on float64
	for i := 0; i < b.N; i++ {
		rows := experiments.E9HoldForInactive(int64(i+1), benchScale())
		off = float64(rows[2].Retrans)
		on = float64(rows[3].Retrans)
	}
	b.ReportMetric(off, "retrans-off")
	b.ReportMetric(on, "retrans-on")
}

// BenchmarkE10WiredFaults regenerates E10: delivery under injected
// wired loss and MSS crashes, recovery stack on vs off. Reported
// metrics: worst recovery-row delivery ratio across the sweep (must be
// 1.0), total recovery-row duplicates (must be 0), and the mean
// ablation ratio (measurably below 1).
func BenchmarkE10WiredFaults(b *testing.B) {
	var worstRecovery, recoveryDups, ablationMean float64
	for i := 0; i < b.N; i++ {
		rows := experiments.E10WiredFaults(int64(i+1), benchScale())
		worstRecovery, recoveryDups, ablationMean = 1, 0, 0
		var ablations int
		for _, r := range rows {
			if r.Recovery {
				if r.Ratio < worstRecovery {
					worstRecovery = r.Ratio
				}
				recoveryDups += float64(r.Duplicates)
			} else {
				ablationMean += r.Ratio
				ablations++
			}
		}
		if ablations > 0 {
			ablationMean /= float64(ablations)
		}
	}
	b.ReportMetric(worstRecovery, "recovery-ratio")
	b.ReportMetric(recoveryDups, "recovery-dups")
	b.ReportMetric(ablationMean, "ablation-ratio")
}

// BenchmarkE11Overload regenerates E11: goodput at 2x the hot station's
// capacity with the overload-protection stack on vs off. Reported
// metrics: protected goodput (plateau near 100% of capacity),
// unprotected goodput (collapse well below it), and admitted requests
// lost under protection (must be 0).
func BenchmarkE11Overload(b *testing.B) {
	var protGoodput, unprotGoodput, lostAdmitted float64
	for i := 0; i < b.N; i++ {
		rows := experiments.E11Overload(int64(i+1), benchScale())
		for _, r := range rows {
			if r.OfferedX == 2 {
				if r.Protected {
					protGoodput = r.GoodputPct
					lostAdmitted = float64(r.LostAdmitted)
				} else {
					unprotGoodput = r.GoodputPct
				}
			}
		}
	}
	b.ReportMetric(protGoodput, "protected-goodput%")
	b.ReportMetric(unprotGoodput, "unprotected-goodput%")
	b.ReportMetric(lostAdmitted, "lost-admitted")
}

// BenchmarkE15WindowedTransport regenerates E15 at bench scale: the
// windowed wireless transport against stop-and-wait across the loss ×
// overload grid. Reported metrics: goodput of both transports at the
// headline point (10% loss, 2x offered load), their ratio (must stay
// ≥ 2), and the windowed p99 result latency in milliseconds.
func BenchmarkE15WindowedTransport(b *testing.B) {
	var windowed, stopwait, ratio, p99ms float64
	for i := 0; i < b.N; i++ {
		rows := experiments.E15WindowedTransport(int64(i+1), benchScale())
		if w, s, ok := experiments.E15Headline(rows); ok && s.GoodputPct > 0 {
			windowed, stopwait = w.GoodputPct, s.GoodputPct
			ratio = w.GoodputPct / s.GoodputPct
			p99ms = float64(w.P99Latency.Milliseconds())
		}
	}
	b.ReportMetric(windowed, "windowed-goodput%")
	b.ReportMetric(stopwait, "stopwait-goodput%")
	b.ReportMetric(ratio, "goodput-ratio")
	b.ReportMetric(p99ms, "windowed-p99-ms")
}

// BenchmarkE13ParallelScale regenerates E13 at bench scale: the sharded
// conservative engine across its region sweep. Reported metrics: the
// minimum delivery ratio across all partitions (must be 1.0) and
// whether every partitioned run reproduced the 1-region headline
// (1 = all equal).
func BenchmarkE13ParallelScale(b *testing.B) {
	minRatio, allEq := 1.0, 1.0
	for i := 0; i < b.N; i++ {
		minRatio, allEq = 1.0, 1.0
		for _, r := range experiments.E13Scale(int64(i+1), benchScale(), nil, 0) {
			if r.Ratio < minRatio {
				minRatio = r.Ratio
			}
			if !r.HeadlineEq {
				allEq = 0
			}
		}
	}
	b.ReportMetric(minRatio, "min-delivery-ratio")
	b.ReportMetric(allEq, "headline-eq")
}

// BenchmarkE14WorkerScale regenerates E14 at bench scale: the
// multi-core engine's worker sweep at a fixed partition. Reported
// metrics: the minimum delivery ratio across all rows (must be 1.0) and
// whether every row's full Summary matched the Workers=1 baseline
// (1 = all equal) — worker count must never change a byte.
func BenchmarkE14WorkerScale(b *testing.B) {
	minRatio, allEq := 1.0, 1.0
	for i := 0; i < b.N; i++ {
		minRatio, allEq = 1.0, 1.0
		for _, r := range experiments.E14Scale(int64(i+1), benchScale(), nil, nil) {
			if r.Ratio < minRatio {
				minRatio = r.Ratio
			}
			if !r.HeadlineEq {
				allEq = 0
			}
		}
	}
	b.ReportMetric(minRatio, "min-delivery-ratio")
	b.ReportMetric(allEq, "headline-eq")
}
