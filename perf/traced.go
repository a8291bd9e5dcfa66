package main

// The traced run: per-layer metrics. It runs the count repetition, one
// bare repetition under the CPU profiler (layer shares), one repetition
// with every seam wrapped in span recorders (in-place timings), and the
// isolated layer timings, and prints how much the wrappers cost.

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/rdpcore"
)

// perLayer lists the traced run's metrics. Each names the end-to-end
// metric it should move and on which workload (README.md has the map).
var perLayer = []metricDef{
	{Name: "sim.events_per_result", Unit: "count", Better: "lower", Source: "kernel steps / results"},
	{Name: "sim.defer_step_ns", Unit: "ns", Better: "lower", Source: "isolated: pop + callback + Defer at the workload's mean queue depth"},
	{Name: "sim.timer_cancel_ratio", Unit: "ratio", Better: "lower", Source: "spans: cancellable timers cancelled while pending / armed"},
	{Name: "sim.self_share_pct", Unit: "%", Better: "lower", Source: "profile"},
	{Name: "causal.send_recv_ns", Unit: "ns", Better: "lower", Source: "isolated: Send + in-order Receive at the workload's wired group size"},
	{Name: "causal.share_pct", Unit: "%", Better: "lower", Source: "profile"},
	{Name: "causal.held_back_ratio", Unit: "ratio", Better: "lower", Source: "spans: wired deliveries released late by causal order / delivered"},
	{Name: "causal.stamp_bytes_per_msg", Unit: "B", Better: "lower", Source: "8 x group size squared"},
	{Name: "msg.encode_ns", Unit: "ns", Better: "lower", Source: "isolated: codec over the recorded wired message mix"},
	{Name: "msg.decode_ns", Unit: "ns", Better: "lower", Source: "same"},
	{Name: "msg.wire_bytes_per_result", Unit: "B", Better: "lower", Source: "spans: encoded size of every wired message sent / results"},
	{Name: "netsim.wired_hop_ns", Unit: "ns", Better: "lower", Source: "spans: self time of wired Send + delivery callbacks / messages (includes causal, ARQ)"},
	{Name: "netsim.wireless_hop_ns", Unit: "ns", Better: "lower", Source: "spans: self time of radio Send + delivery callbacks / sends (includes wtp)"},
	{Name: "netsim.self_share_pct", Unit: "%", Better: "lower", Source: "profile"},
	{Name: "netsim.wired_retransmit_ratio", Unit: "ratio", Better: "lower", Source: "wired ARQ retransmissions / wired messages"},
	{Name: "netsim.shed_ratio", Unit: "ratio", Better: "lower", Source: "frames shed by bounded link queues / frames"},
	{Name: "wtp.frame_ns", Unit: "ns", Better: "lower", Source: "isolated: sender + receiver + timers per data frame on a clean link"},
	{Name: "wtp.share_pct", Unit: "%", Better: "lower", Source: "profile"},
	{Name: "wtp.msgs_per_frame", Unit: "count", Better: "higher", Source: "messages coalesced / data frames"},
	{Name: "wtp.retransmit_ratio", Unit: "ratio", Better: "lower", Source: "frame retransmissions / data frames"},
	{Name: "wtp.dup_ratio", Unit: "ratio", Better: "lower", Source: "duplicate frames at receivers / data frames"},
	{Name: "wtp.resets", Unit: "count", Better: "lower", Source: "links that exhausted their retries"},
	{Name: "rdpcore.mss_handle_ns", Unit: "ns", Better: "lower", Source: "spans: station HandleMessage self time / message"},
	{Name: "rdpcore.mss_handle_ns.request", Unit: "ns", Better: "lower", Source: "spans, by paper message kind"},
	{Name: "rdpcore.mss_handle_ns.result_forward", Unit: "ns", Better: "lower"},
	{Name: "rdpcore.mss_handle_ns.ack_mh", Unit: "ns", Better: "lower"},
	{Name: "rdpcore.mss_handle_ns.greet", Unit: "ns", Better: "lower"},
	{Name: "rdpcore.mss_handle_ns.dereg", Unit: "ns", Better: "lower"},
	{Name: "rdpcore.mss_handle_ns.dereg_ack", Unit: "ns", Better: "lower"},
	{Name: "rdpcore.mss_handle_ns.update_current_loc", Unit: "ns", Better: "lower"},
	{Name: "rdpcore.mss_handle_ns.ack_forward", Unit: "ns", Better: "lower"},
	{Name: "rdpcore.mh_handle_ns", Unit: "ns", Better: "lower", Source: "spans: host HandleMessage self time / message"},
	{Name: "rdpcore.share_pct", Unit: "%", Better: "lower", Source: "profile"},
	{Name: "rdpcore.msgs_per_result", Unit: "count", Better: "lower", Source: "station dispatches / results"},
	{Name: "rdpcore.handoffs_per_result", Unit: "count", Better: "lower", Source: "completed hand-offs / results"},
	{Name: "rdpcore.proxy_retransmit_ratio", Unit: "ratio", Better: "lower", Source: "proxy re-forwards / results"},
	{Name: "rdpcore.orphan_ratio", Unit: "ratio", Better: "lower", Source: "messages no state could process / station dispatches"},
	{Name: "rdpcore.violations", Unit: "count", Better: "lower", Source: "Stats.Violations; the run fails beyond one per 10 000 results"},
	{Name: "rdpcore.checkpoint_writes_per_result", Unit: "count", Better: "lower", Source: "stable-store writes / results"},
	{Name: "rdpcore.recovery_resends_per_crash", Unit: "count", Better: "lower", Source: "recovery resends / station crashes"},
	{Name: "rdpcore.state_bytes_per_mss", Unit: "B", Better: "lower", Source: "World.StateBytes at the midpoint / cells"},
	{Name: "aggstate.add_ns", Unit: "ns", Better: "lower", Source: "isolated: half an Add+Remove pair at the per-cell resident-set size"},
	{Name: "aggstate.contains_ns", Unit: "ns", Better: "lower", Source: "isolated"},
	{Name: "aggstate.mem_bytes_per_member", Unit: "B", Better: "lower", Source: "Set.MemBytes / members at that size"},
	{Name: "aggstate.delta_bytes_per_member", Unit: "B", Better: "lower", Source: "len(Set.AppendDelta) / members"},
	{Name: "psim.window_ns", Unit: "ns", Better: "lower", Source: "isolated: one lookahead window over near-empty regions"},
	{Name: "psim.cross_frames_per_result", Unit: "count", Better: "lower", Source: "frames that crossed a region boundary / results"},
	{Name: "psim.addmhs_ns_per_host", Unit: "ns", Better: "lower", Source: "calibrated set-up / hosts"},
	{Name: "psim.speedup_w2", Unit: "x", Better: "higher", Source: "raw wall, Workers 1 / Workers 2; informational: on two shared cores it measures the scheduler"},
	{Name: "dcache.hit_ratio", Unit: "ratio", Better: "higher", Source: "cache hits / lookups"},
	{Name: "dcache.get_put_ns", Unit: "ns", Better: "lower", Source: "isolated: lookup plus store on miss over the query pool"},
	{Name: "proxymig.completed_per_1k_results", Unit: "count", Better: "lower", Source: "completed proxy migrations per 1000 results"},
	{Name: "proxymig.forward_hops_mean", Unit: "count", Better: "lower", Source: "mean station distance of a proxy result forward"},
	{Name: "faults.injected_drop_ratio", Unit: "ratio", Better: "lower", Source: "injected wired drops / wired transmission attempts"},
	{Name: "server.handle_ns", Unit: "ns", Better: "lower", Source: "spans: server HandleMessage + processing callback self time / request"},
	{Name: "workload.gen_ns_per_host", Unit: "ns", Better: "lower", Source: "calibrated input generation / hosts"},
	{Name: "tcpnet.loopback_roundtrip_us", Unit: "us", Better: "lower", Source: "raw wall, loopback, informational: median wired round trip over tcpnet"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Source: "calibrated run time, traced over bare"},
}

// paperKinds maps the per-kind station metrics to message kinds.
var paperKinds = map[string]msg.Kind{
	"request": msg.KindRequest, "result_forward": msg.KindResultForward, "ack_mh": msg.KindAckMH,
	"greet": msg.KindGreet, "dereg": msg.KindDereg, "dereg_ack": msg.KindDeregAck,
	"update_current_loc": msg.KindUpdateCurrentLoc, "ack_forward": msg.KindAckForward,
}

// replica is the serial stand-in the span recorders run on when the
// workload itself runs on the partitioned engine (which builds its own
// worlds, out of the wrappers' reach): one region's worth of cells,
// servers and hosts with the same configuration, mobility and requests.
func (s *spec) replica() *spec {
	r := *s
	r.name = s.name + "_replica"
	r.cells, r.servers, r.hosts = s.cells/s.regions, s.servers/s.regions, s.hosts/s.regions
	r.regions, r.setupChunk = 0, s.setupChunk/s.regions
	base := s.config
	r.config = func() rdpcore.Config {
		cfg := base()
		cfg.NumMSS, cfg.NumServers = r.cells, r.servers
		return cfg
	}
	return &r
}

func runTraced(s *spec, seed int64, outDir string) *result {
	start := time.Now()
	res := &result{Workload: s.name, Seed: seed}
	cal := newCalib()
	var in *inputs
	genNs := cal.nsPerOp(s.hosts, func() { in = s.generate(seed) })

	c, inst, err := s.countRep(in)
	fail := func(err error) *result { return res.fail(err, cal, c, in, start) }
	if err != nil {
		return fail(err)
	}
	cfg := s.config()
	n := c.results()
	ctr := func(name string) float64 { return float64(c.out.counters[name]) }
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}

	// Counts, from the count repetition.
	m["sim.events_per_result"] = float64(c.out.steps) / n
	m["rdpcore.msgs_per_result"] = float64(c.stationMsgs.Load()) / n
	m["rdpcore.handoffs_per_result"] = ctr("Handoffs") / n
	m["rdpcore.proxy_retransmit_ratio"] = ctr("Retransmissions") / n
	m["rdpcore.orphan_ratio"] = ratio(ctr("OrphanMessages"), float64(c.stationMsgs.Load()))
	m["rdpcore.violations"] = ctr("Violations")
	m["rdpcore.checkpoint_writes_per_result"] = ctr("CheckpointWrites") / n
	m["rdpcore.recovery_resends_per_crash"] = ratio(ctr("RecoveryResends"), ctr("MSSCrashes"))
	m["rdpcore.state_bytes_per_mss"] = c.stateBytesPerMSS
	m["netsim.shed_ratio"] = ratio(ctr("NetworkShed"), float64(c.wiredSamples.Load()+c.radioFrames()))
	m["wtp.msgs_per_frame"] = ratio(ctr("WTPFrameMsgs"), ctr("WTPFrames"))
	m["wtp.retransmit_ratio"] = ratio(ctr("WTPRetransmits"), ctr("WTPFrames"))
	m["wtp.resets"] = ctr("WTPResets")
	m["psim.cross_frames_per_result"] = ctr("psim.CrossFrames") / n
	m["dcache.hit_ratio"] = ratio(ctr("CacheHits"), ctr("CacheHits")+ctr("CacheMisses")+ctr("CacheStale"))
	m["proxymig.completed_per_1k_results"] = 1000 * ctr("MigCompleted") / n
	m["proxymig.forward_hops_mean"] = ratio(ctr("ForwardHops"), ctr("ForwardCount"))
	m["workload.gen_ns_per_host"] = genNs
	if inst.w != nil {
		if wired, ok := inst.w.Wired.(*netsim.Wired); ok {
			rtx, _ := wired.ARQStats()
			m["netsim.wired_retransmit_ratio"] = ratio(float64(rtx), float64(c.wiredMsgs()))
		}
		if radio, ok := inst.w.Wireless.(*netsim.Wireless); ok {
			_, _, _, _, _, dups := radio.WTPStats()
			m["wtp.dup_ratio"] = ratio(float64(dups), ctr("WTPFrames"))
		}
	}
	if inst.inj != nil {
		drops, dups := float64(inst.inj.Stats.Drops.Value()), float64(inst.inj.Stats.Dups.Value())
		// Every attempt that was not dropped drew a delay sample, and a
		// duplicated one drew two.
		m["faults.injected_drop_ratio"] = ratio(drops, float64(c.wiredSamples.Load())-dups+drops)
	}
	inst = nil

	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // as in timed repetitions
	runtime.GC()

	// One bare repetition under the CPU profiler: the overhead baseline
	// and the layer shares. The calibration units and the harness's own
	// frames are left out of the shares' denominator.
	var bare timedRep
	runtime.SetCPUProfileRate(profileHz)
	shares, samples, perr := profileShares(func() { bare, err = s.timedRep(in, cal, hooks{}, 1, &c.out) })
	if err != nil {
		return fail(err)
	}
	if perr != nil {
		return fail(fmt.Errorf("cpu profile: %w", perr))
	}
	program := 100 - shares[layerHarness]
	res.Shares = map[string]float64{}
	for layer, pct := range shares {
		if layer != layerHarness {
			res.Shares[layer] = 100 * pct / program
		}
	}
	res.Raw.ProfileSamples = samples
	m["sim.self_share_pct"] = res.Shares["sim"]
	m["causal.share_pct"] = res.Shares["causal"]
	m["netsim.self_share_pct"] = res.Shares["netsim"]
	m["wtp.share_pct"] = res.Shares["wtp"]
	m["rdpcore.share_pct"] = res.Shares["rdpcore"]
	if s.regions > 0 {
		m["psim.addmhs_ns_per_host"] = bare.setups[0] * 1e9 / float64(s.hosts)
	}

	// The traced repetition, on the replica for the partitioned workload.
	ts, tin, want, base := s, in, &c.out, bare
	if s.regions > 0 {
		ts = s.replica()
		tin, want = ts.generate(seed), nil
		runtime.GC()
		if base, err = ts.timedRep(tin, cal, hooks{}, 1, nil); err != nil {
			return fail(err)
		}
	}
	runtime.GC()
	t := newTracer()
	traced, err := ts.timedRep(tin, cal, hooks{tracer: t}, 1, want)
	if err != nil {
		return fail(fmt.Errorf("traced repetition: %w", err))
	}
	factor := traced.runSeconds / traced.runRaw // calibrated ns per raw ns
	m["trace.overhead_pct"] = 100 * (traced.runSeconds/base.runSeconds - 1)
	if s.regions > 0 {
		// State bytes come from the replica at the end of its run.
		m["rdpcore.state_bytes_per_mss"] = traced.stateBytesPerMSS
	}
	perMsg := func(a aggregate) float64 { return ratio(a.Self*factor, float64(a.N)) }
	wiredSend, down, up := t.sum(spWiredSend), t.sum(spDownSend), t.sum(spUpSend)
	m["netsim.wired_hop_ns"] = ratio((wiredSend.Self+t.byClass[clsWired].Self)*factor, float64(wiredSend.N))
	m["netsim.wireless_hop_ns"] = ratio((down.Self+up.Self+t.byClass[clsWireless].Self)*factor, float64(down.N+up.N))
	m["rdpcore.mss_handle_ns"] = perMsg(t.sum(spMSS))
	for name, kind := range paperKinds {
		m["rdpcore.mss_handle_ns."+name] = perMsg(t.byKind[spMSS][kind])
	}
	m["rdpcore.mh_handle_ns"] = perMsg(t.sum(spMH))
	srv := t.sum(spServer)
	m["server.handle_ns"] = ratio((srv.Self+t.byClass[clsServer].Self)*factor, float64(srv.N))
	m["sim.timer_cancel_ratio"] = ratio(float64(t.cancels), float64(t.afters))
	m["causal.held_back_ratio"] = ratio(float64(t.heldBack), float64(t.wiredDelivered))
	m["msg.wire_bytes_per_result"] = ratio(float64(t.wiredBytes), float64(traced.out.counters["ResultsDelivered"]))
	res.Raw.SpanSelfShares = t.selfShares()
	path, err := t.write(outDir, s.name, factor)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf: trace file not written:", err)
	}
	res.Raw.TraceFile, res.Raw.Spans = path, int64(t.next)
	sample := t.sample
	t = nil
	runtime.GC()

	// Isolated timings at the workload's shape.
	depth := s.hosts / max(s.regions, 1)
	if c.pendingN > 0 {
		depth = int(c.pendingSum / c.pendingN)
	}
	m["sim.defer_step_ns"] = simDeferStepNs(cal, depth)
	if cfg.Causal {
		group := (s.cells + s.servers) / max(s.regions, 1)
		m["causal.send_recv_ns"] = causalSendRecvNs(cal, group)
		m["causal.stamp_bytes_per_msg"] = float64(8 * group * group)
	}
	m["msg.encode_ns"], m["msg.decode_ns"] = codecNs(cal, sample)
	if cfg.WirelessWTP.Enabled {
		m["wtp.frame_ns"] = wtpFrameNs(cal, cfg.WirelessWTP, 256)
	}
	if cfg.AggregatedState {
		m["aggstate.add_ns"], m["aggstate.contains_ns"], m["aggstate.mem_bytes_per_member"], m["aggstate.delta_bytes_per_member"] =
			aggstateNs(cal, s.hosts/s.cells, s.hosts)
	}
	m["dcache.get_put_ns"] = dcacheNs(cal, cfg.ResultCache, s.queryPool, 16)
	if s.regions > 0 {
		m["psim.window_ns"] = psimWindowNs(cal, s)
		two := *s
		two.workers = 2
		runtime.GC()
		w2, err := two.timedRep(in, cal, hooks{}, 1, &c.out)
		if err != nil {
			return fail(fmt.Errorf("Workers: 2 repetition: %w", err))
		}
		m["psim.speedup_w2"] = bare.runRaw / w2.runRaw
	}
	m["tcpnet.loopback_roundtrip_us"] = tcpLoopbackRoundTripUs()

	res.PerLayer = m
	res.Correct = true
	res.Attempted, res.Failed = c.out.issued, c.out.issued-c.out.delivered
	res.fillRaw(cal, c, in, start)
	return res
}

// profileHz is the CPU profiler's sampling rate for the profiled
// repetition: a 2 s repetition at the default 100 Hz is too few samples
// for a share table. runtime/pprof has no rate parameter; setting the
// rate first is the documented way (the runtime notes on standard error
// that pprof's own request for 100 Hz was ignored).
const profileHz = 500

// selfShares is the span-side share table: self time by seam, in percent
// of the traced repetition. It cannot split causal from netsim or wtp
// from the radio; the profile does that. Informational (raw block).
func (t *tracer) selfShares() map[string]float64 {
	parts := map[string]float64{
		"sim (sched calls + kernel loop)": t.sum(spSched).Self + t.gapNs,
		"netsim wired (send + delivery)":  t.sum(spWiredSend).Self + t.byClass[clsWired].Self,
		"netsim radio (send + delivery)":  t.sum(spDownSend).Self + t.sum(spUpSend).Self + t.byClass[clsWireless].Self,
		"rdpcore station":                 t.sum(spMSS).Self,
		"rdpcore host + protocol timers":  t.sum(spMH).Self + t.byClass[clsCore].Self + t.byClass[clsDriver].Self,
		"server":                          t.sum(spServer).Self + t.byClass[clsServer].Self,
	}
	var total float64
	for _, v := range parts {
		total += v
	}
	for k, v := range parts {
		parts[k] = 100 * v / max(total, 1)
	}
	return parts
}

// runSelfcheck runs every workload twice and prints, per end-to-end
// metric, the relative difference against its bound, plus the calibration
// unit's p50 and p95: is this machine fit to measure on.
func runSelfcheck(seed int64, seconds float64) int {
	status := 0
	for _, s := range specs {
		a, b := runEndToEnd(s, seed, seconds), runEndToEnd(s, seed, seconds)
		fmt.Printf("%s  (calibration unit p50 %.1f ms, p95 %.1f ms, reference %.1f ms; stolen %.0f ms)\n",
			s.name, b.Raw.CalibUnitP50Ms, b.Raw.CalibUnitP95Ms, b.Raw.CalibRefMs, a.Raw.StolenMs+b.Raw.StolenMs)
		if !a.Correct || !b.Correct {
			fmt.Printf("  FAILED: %s%s\n", a.Error, b.Error)
			status = 1
			continue
		}
		for _, d := range endToEnd {
			x, y := a.EndToEnd[d.Name], b.EndToEnd[d.Name]
			diff := ratio(y-x, x)
			if d.Better == "higher" {
				diff = -diff
			}
			verdict := "ok"
			if diff > d.Bound {
				verdict = "WORSE THAN BOUND"
				status = 1
			}
			fmt.Printf("  %-26s %14.6g %14.6g  %+8.3f%%  bound %5.2f%%  %s\n", d.Name, x, y, 100*diff, 100*d.Bound, verdict)
		}
	}
	return status
}
