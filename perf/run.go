package main

// One run of one workload: a count repetition (observed, uncalibrated:
// every count and every simulated-time metric) followed by timed
// repetitions (bare, calibrated: the two timings), each on a freshly
// constructed world and each checked against the count repetition.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/rdpcore"
	"repro/internal/sim"
)

const (
	minTimedReps = 5
	maxTimedReps = 7
)

// boundaries are the simulated instants a repetition stops at. Every
// repetition of a run uses the same ones: the partitioned engine's window
// edges follow them, so they are part of the replayed schedule.
func (s *spec) boundaries() (all []time.Duration, mid int) {
	for t := s.slice; t < s.end; t += s.slice {
		all = append(all, t)
	}
	all = append(all, s.end)
	return all, len(all) / 2
}

// countingLatency counts the delay samples a substrate draws: one per
// frame that flies. It wraps the configured model without changing a
// sample, and unlike an Observer it is accepted by the partitioned
// engine. Atomic because region construction may touch it off-thread.
type countingLatency struct {
	netsim.LatencyModel
	n *atomic.Int64
}

func (c countingLatency) Sample(rng *sim.RNG) time.Duration {
	c.n.Add(1)
	return c.LatencyModel.Sample(rng)
}

// counts is what the count repetition observed.
type counts struct {
	out outcome

	wiredSamples, wirelessSamples atomic.Int64 // delay samples drawn
	stationMsgs                   atomic.Int64 // station dispatches

	// Serial worlds only (observer).
	observed        bool
	wiredSent       int64     // EventSent on the wired layer
	radioLostAtSend int64     // uplink / ack frames lost before they flew
	latencies       []float64 // exact, simulated ms

	mallocs, allocBytes uint64
	liveBytes           int64
	rawSeconds          float64

	latP50, latP99 float64
	latSamples     int

	pendingSum, pendingN float64 // kernel queue depth sampled at boundaries
	stateBytesPerMSS     float64 // World.StateBytes at the midpoint / cells
}

func (c *counts) results() float64 { return float64(c.out.counters["ResultsDelivered"]) }

// wiredMsgs is the number of protocol messages put on the wired network.
// The observer counts them directly; on the partitioned engine (no
// faults, no ARQ) every send draws exactly one delay sample, which the
// serial fault-free workloads cross-check.
func (c *counts) wiredMsgs() int64 {
	if c.observed {
		return c.wiredSent
	}
	return c.wiredSamples.Load()
}

// radioFrames is the number of wireless frames put on the air: every
// frame that flies draws one delay sample; frames lost at the sender
// (uplink and ack loss is decided before the delay is drawn) are added
// from the observer. On the partitioned workload nothing is lost at the
// sender (no loss, no crash, no disconnect).
func (c *counts) radioFrames() int64 { return c.wirelessSamples.Load() + c.radioLostAtSend }

func (s *spec) countHooks(in *inputs, c *counts) hooks {
	hk := hooks{
		wrapLatency: func(wired bool, m netsim.LatencyModel) netsim.LatencyModel {
			if wired {
				return countingLatency{m, &c.wiredSamples}
			}
			return countingLatency{m, &c.wirelessSamples}
		},
		stationHook: func(ids.MSS) time.Duration { c.stationMsgs.Add(1); return 0 },
	}
	if s.regions > 0 {
		return hk
	}
	c.observed = true
	c.latencies = make([]float64, 0, in.requests)
	hk.observer = func(_ sim.Time, layer netsim.Layer, kind netsim.EventKind, from, _ ids.NodeID, _ msg.Message) {
		switch {
		case layer == netsim.LayerWired && kind == netsim.EventSent:
			c.wiredSent++
		case layer == netsim.LayerWireless && from.Kind == ids.KindMH && kind.IsDrop():
			// Uplink frames and windowed-transport acks are dropped at
			// the sender, before a delay is drawn.
			c.radioLostAtSend++
		}
	}
	hk.onResult = func(h *hostInput, req ids.RequestID, dup bool, now time.Duration) {
		if !dup {
			c.latencies = append(c.latencies, float64(now-h.reqs[req.Seq-1].At)/1e6)
		}
	}
	return hk
}

// countRep runs the count repetition.
func (s *spec) countRep(in *inputs) (*counts, *instance, error) {
	c := &counts{}
	hk := s.countHooks(in, c)
	bounds, mid := s.boundaries()

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap0 := int64(ms.HeapAlloc)

	inst := s.build(in, hk, func(stage func()) { stage() })

	runtime.ReadMemStats(&ms)
	m0, b0 := ms.Mallocs, ms.TotalAlloc
	t0 := time.Now()
	for i, b := range bounds {
		inst.runUntil(b)
		if inst.k != nil && b <= s.horizon {
			c.pendingSum += float64(inst.k.Pending())
			c.pendingN++
		}
		if i == mid {
			if inst.w != nil {
				c.stateBytesPerMSS = float64(inst.w.StateBytes()) / float64(s.cells)
			}
			c.rawSeconds += time.Since(t0).Seconds()
			runtime.GC()
			runtime.ReadMemStats(&ms)
			c.liveBytes = int64(ms.HeapAlloc) - heap0
			t0 = time.Now()
		}
	}
	c.rawSeconds += time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes = ms.Mallocs-m0, ms.TotalAlloc-b0

	var err error
	c.out, err = inst.finish()
	if err != nil {
		return c, inst, err
	}

	if inst.pw != nil {
		c.latP50, c.latP99, c.latSamples = pooledLatency(inst.pw.RegionStats())
	} else {
		if len(c.latencies) != c.out.latCount {
			return c, inst, fmt.Errorf("harness saw %d first deliveries, Stats.ResultLatency %d", len(c.latencies), c.out.latCount)
		}
		c.latP50, c.latP99, c.latSamples = quantile(c.latencies, 0.5), quantile(c.latencies, 0.99), len(c.latencies)
		if !in.hasPlan && c.wiredSamples.Load() != c.wiredSent {
			// The identity the partitioned workload's wired count rests on.
			return c, inst, fmt.Errorf("fault-free wired network drew %d delay samples for %d messages sent", c.wiredSamples.Load(), c.wiredSent)
		}
	}
	return c, inst, nil
}

// pooledLatency pools the regions' latency reservoirs, each sample
// weighted by the observations it stands for.
func pooledLatency(regions []*rdpcore.Stats) (p50, p99 float64, n int) {
	type ws struct{ v, w float64 }
	var all []ws
	var total float64
	for _, st := range regions {
		h := &st.ResultLatency
		samples := histogramSamples(h)
		if len(samples) == 0 {
			continue
		}
		w := float64(h.Count()) / float64(len(samples))
		for _, v := range samples {
			all = append(all, ws{v / 1e6, w})
		}
		total += float64(h.Count())
		n += h.Count()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	at := func(q float64) float64 {
		acc := 0.0
		for _, x := range all {
			acc += x.w
			if acc >= q*total {
				return x.v
			}
		}
		return 0
	}
	return at(0.5), at(0.99), n
}

// timedRep is one bare, calibrated repetition.
type timedRep struct {
	setups     []float64 // calibrated seconds per set-up
	setupsRaw  []float64
	runSeconds float64 // calibrated
	runRaw     float64
	out        outcome
	// stateBytesPerMSS is World.StateBytes / cells when the run ends
	// (serial worlds; the traced run reads it off the replica).
	stateBytesPerMSS float64
}

// timedRep builds the world `builds` times (each a set-up sample), runs
// the last one and checks it replayed want (nil skips the comparison).
func (s *spec) timedRep(in *inputs, cal *calib, hk hooks, builds int, want *outcome) (timedRep, error) {
	var rep timedRep
	var inst *instance
	for b := 0; b < builds; b++ {
		inst = nil
		runtime.GC()
		r := cal.begin()
		inst = s.build(in, hk, r.slice)
		sec, raw := r.end()
		rep.setups = append(rep.setups, sec)
		rep.setupsRaw = append(rep.setupsRaw, raw)
	}
	bounds, _ := s.boundaries()
	r := cal.begin()
	if hk.tracer != nil {
		hk.tracer.t0 = time.Now()
	}
	for _, b := range bounds {
		if hk.tracer != nil {
			r.slice(func() { hk.tracer.slice(func() { inst.runUntil(b) }) })
		} else {
			r.slice(func() { inst.runUntil(b) })
		}
	}
	rep.runSeconds, rep.runRaw = r.end()
	if inst.w != nil {
		rep.stateBytesPerMSS = float64(inst.w.StateBytes()) / float64(s.cells)
	}
	got, err := inst.finish()
	rep.out = got
	if err != nil {
		return rep, err
	}
	if want != nil {
		if err := sameOutcome(*want, got); err != nil {
			return rep, fmt.Errorf("repetition is not a replay of the count repetition: %w", err)
		}
	}
	return rep, nil
}

// rawBlock is informational: raw wall numbers never feed a gated metric.
type rawBlock struct {
	Reps              int       `json:"timed_reps"`
	RunWallS          []float64 `json:"run_wall_s"`
	RunCalibratedS    []float64 `json:"run_calibrated_s"`
	SetupWallS        []float64 `json:"setup_wall_s"`
	CountRepWallS     float64   `json:"count_rep_wall_s"`
	CalibUnitP50Ms    float64   `json:"calib_unit_p50_ms"`
	CalibUnitP95Ms    float64   `json:"calib_unit_p95_ms"`
	CalibUnits        int       `json:"calib_units"`
	CalibRefMs        float64   `json:"calib_ref_ms"`
	StolenMs          float64   `json:"stolen_ms"`
	Results           int64     `json:"results"`
	LatencySamples    int       `json:"latency_samples"`
	KernelSteps       uint64    `json:"kernel_steps"`
	Violations        int64     `json:"protocol_violations"`
	GeneratorLagMs    float64   `json:"generator_lag_ms"`
	Loop              string    `json:"loop"`
	TotalWallS        float64   `json:"total_wall_s"`
	InputGenerationMs float64   `json:"input_generation_ms"`

	// Traced run only.
	ProfileSamples int64              `json:"profile_samples,omitempty"`
	Spans          int64              `json:"spans,omitempty"`
	TraceFile      string             `json:"trace_file,omitempty"`
	SpanSelfShares map[string]float64 `json:"span_self_share_pct,omitempty"`
}

// result is one run's report.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"ops_attempted"`
	Failed    int64              `json:"ops_failed"`
	Error     string             `json:"error,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Shares    map[string]float64 `json:"layer_share_pct,omitempty"`
	Raw       rawBlock           `json:"raw"`
}

// fail marks the run failed and completes the report.
func (res *result) fail(err error, cal *calib, c *counts, in *inputs, start time.Time) *result {
	res.Correct = false
	res.Error = err.Error()
	if c != nil && c.out.issued > 0 {
		res.Attempted, res.Failed = c.out.issued, c.out.issued-c.out.delivered
	}
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	if res.Failed == 0 {
		res.Failed = res.Attempted // the run as a whole failed
	}
	res.fillRaw(cal, c, in, start)
	return res
}

func (res *result) fillRaw(cal *calib, c *counts, in *inputs, start time.Time) {
	res.Raw.CalibUnitP50Ms = quantile(cal.units, 0.5) / 1e6
	res.Raw.CalibUnitP95Ms = quantile(cal.units, 0.95) / 1e6
	res.Raw.CalibUnits = len(cal.units)
	res.Raw.CalibRefMs = calibRefNs / 1e6
	res.Raw.StolenMs = cal.stolenNs / 1e6
	res.Raw.Loop = "open loop in simulated time: arrivals are scheduled up front at their Poisson instants and latency counts from the scheduled instant, so generator lag is zero by construction"
	res.Raw.InputGenerationMs = in.genNs / 1e6
	if c != nil {
		res.Raw.CountRepWallS = c.rawSeconds
		res.Raw.Results = c.out.counters["ResultsDelivered"]
		res.Raw.LatencySamples = c.latSamples
		res.Raw.KernelSteps = c.out.steps
		res.Raw.Violations = c.out.counters["Violations"]
	}
	res.Raw.TotalWallS = time.Since(start).Seconds()
}

// runEndToEnd is the untraced run: every end-to-end metric.
func runEndToEnd(s *spec, seed int64, seconds float64) *result {
	start := time.Now()
	res := &result{Workload: s.name, Seed: seed}
	in := s.generate(seed)
	cal := newCalib()

	c, _, err := s.countRep(in)
	if err != nil {
		return res.fail(err, cal, c, in, start)
	}

	// Timed repetitions run with the collector paused and a forced
	// collection between them. Concurrent marking borrows the second core,
	// and on a shared two-core box that core's availability was the largest
	// noise term by far (the simulation slowed 1.3-1.8x as much as any
	// single-threaded kernel); allocation volume and live heap are gated by
	// their own metrics instead.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	var setups, rates []float64
	timedStart := time.Now()
	for k := 0; k < maxTimedReps && (k < minTimedReps || time.Since(timedStart).Seconds() < seconds); k++ {
		runtime.GC()
		rep, err := s.timedRep(in, cal, hooks{}, s.builds, &c.out)
		if err != nil {
			return res.fail(err, cal, c, in, start)
		}
		setups = append(setups, rep.setups...)
		rates = append(rates, c.results()/rep.runSeconds)
		res.Raw.RunWallS = append(res.Raw.RunWallS, rep.runRaw)
		res.Raw.RunCalibratedS = append(res.Raw.RunCalibratedS, rep.runSeconds)
		res.Raw.SetupWallS = append(res.Raw.SetupWallS, rep.setupsRaw...)
		res.Raw.Reps++
	}

	rss, _ := metrics.PeakRSS()
	n := c.results()
	res.EndToEnd = map[string]float64{
		"setup_s":                 median(setups),
		"norm_results_per_s":      median(rates),
		"allocs_per_result":       float64(c.mallocs) / n,
		"alloc_bytes_per_result":  float64(c.allocBytes) / n,
		"live_bytes_per_host":     float64(c.liveBytes) / float64(s.hosts),
		"peak_rss_mb":             float64(rss) / (1 << 20),
		"delivery_ratio":          ratio(float64(c.out.delivered), float64(c.out.issued)),
		"exactly_once_ratio":      1 - ratio(float64(c.out.counters["DuplicateDeliveries"]), n),
		"latency_p50_ms":          c.latP50,
		"latency_p99_ms":          c.latP99,
		"wired_msgs_per_result":   float64(c.wiredMsgs()) / n,
		"radio_frames_per_result": float64(c.radioFrames()) / n,
	}
	res.Correct = true
	res.Attempted, res.Failed = c.out.issued, c.out.issued-c.out.delivered
	res.fillRaw(cal, c, in, start)
	return res
}
