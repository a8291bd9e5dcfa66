package main

import (
	"math"
	"reflect"
	"sort"

	"repro/internal/metrics"
	"repro/internal/rdpcore"
)

// metricDef names one reported metric. BENCHMARK.json mirrors these
// tables (a test keeps them in step).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
	Source string  `json:"source,omitempty"`
}

// endToEnd is what a user of the system sees; same names on every
// workload. Timings are calibrated seconds (see calib.go); latencies are
// simulated time.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "calibrated: world construction + host attach + scheduling of the pre-generated inputs, median over all set-ups of the run"},
	{"norm_results_per_s", "1/s", "higher", 0.20, "first-time deliveries / calibrated run time, median over timed repetitions"},
	{"allocs_per_result", "count", "lower", 0.05, "MemStats.Mallocs delta around the count repetition's run / results"},
	{"alloc_bytes_per_result", "B", "lower", 0.10, "MemStats.TotalAlloc delta, same"},
	{"live_bytes_per_host", "B", "lower", 0.12, "HeapAlloc after a forced GC at the simulated-time midpoint of the count repetition, less the heap before set-up, / hosts"},
	{"peak_rss_mb", "MB", "lower", 0.12, "VmHWM at exit"},
	{"delivery_ratio", "ratio", "higher", 0.0005, "requests delivered at least once / issued, at drain"},
	{"exactly_once_ratio", "ratio", "higher", 0.01, "1 - DuplicateDeliveries/ResultsDelivered"},
	{"latency_p50_ms", "sim_ms", "lower", 0.10, "issue instant to first delivery, simulated time"},
	{"latency_p99_ms", "sim_ms", "lower", 0.15, "same"},
	{"wired_msgs_per_result", "count", "lower", 0.15, "protocol messages sent on the wired network / results (the paper's section 5 overhead)"},
	{"radio_frames_per_result", "count", "lower", 0.02, "wireless frames put on the air (data, acks, retransmissions) / results"},
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank quantile of v (v is not modified): the
// smallest sample with at least q of the samples at or below it.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterFields returns every metrics.Counter field of a Stats value by
// name, so repetitions compare on all of them without a hand-kept list.
func counterFields(st *rdpcore.Stats) map[string]int64 {
	out := map[string]int64{}
	v := reflect.ValueOf(st).Elem()
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		if c, ok := v.Field(i).Addr().Interface().(*metrics.Counter); ok {
			out[t.Field(i).Name] = c.Value()
		}
	}
	return out
}

// histogramSamples recovers a Histogram's reservoir (it only exposes
// Quantile): the i-th of m order statistics is Quantile((i-0.5)/m).
func histogramSamples(h *metrics.Histogram) []float64 {
	m := min(h.Count(), 8192) // metrics.reservoirCap
	out := make([]float64, m)
	for i := range out {
		out[i] = float64(h.Quantile((float64(i) + 0.5) / float64(m)))
	}
	return out
}
