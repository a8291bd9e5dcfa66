package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestCalibrationKernelAllocatesNothing(t *testing.T) {
	c := newCalib()
	if n := testing.AllocsPerRun(3, c.work); n != 0 {
		t.Fatalf("calibration unit allocates %v times per run, want 0", n)
	}
}

// The calibration kernel must stay a frozen yardstick: a change to the
// repository's code may not change it, so it may not import any of it.
func TestCalibrationKernelImportsNothingFromTheRepo(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "calib.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		if strings.Contains(imp.Path.Value, "repro/") {
			t.Errorf("calib.go imports %s", imp.Path.Value)
		}
	}
}

func TestCalibratedRegionScalesByTheUnitsAroundEachSlice(t *testing.T) {
	// Units of 11 ms everywhere: half the reference speed, so 10 ms of
	// running time is worth 20 ms at the reference. One preempted unit
	// (50 ms) must not move the median.
	c := &calib{units: []float64{11e6, 11e6, 11e6, 50e6, 11e6, 11e6}}
	r := &calibrated{c: c, raw: []float64{10e6}}
	cal, raw := r.scaled()
	if want := 10e6 * calibRefNs / 11e6 / 1e9; cal != want || raw != 0.01 {
		t.Fatalf("calibrated %v s raw %v s, want %v and 0.01", cal, raw, want)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10} // 1..10
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 5.5}, {0.99, 10}, {0.9, 9}, {0.25, 3}, {0.1, 1}, {1, 10},
	} {
		if got := quantile(v, tc.q); got != tc.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if v[0] != 9 {
		t.Error("quantile reordered its argument")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricTablesAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	check := func(d metricDef, endToEnd bool) {
		t.Helper()
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %v", d.Name, nameRE)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: direction %q", d.Name, d.Better)
		}
		if endToEnd && (d.Bound <= 0 || d.Bound > 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	var setup *metricDef
	for i, d := range endToEnd {
		check(d, true)
		if d.Name == "setup_s" {
			setup = &endToEnd[i]
		}
	}
	for _, d := range perLayer {
		check(d, false)
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("setup_s must be an end-to-end metric in s, lower is better: %+v", setup)
	}
	for _, d := range endToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("%s has a larger bound (%v) than setup_s (%v)", d.Name, d.Bound, setup.Bound)
		}
	}
	for name := range paperKinds {
		if !seen["rdpcore.mss_handle_ns."+name] {
			t.Errorf("per-kind station metric for %s is not in the per-layer table", name)
		}
	}
	for _, s := range specs {
		if !nameRE.MatchString(s.name) || len(s.why) > 200 || strings.Contains(s.why, "\n") {
			t.Errorf("workload %q: bad name or why (%d chars)", s.name, len(s.why))
		}
	}
}

func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := describeJSON(); !bytes.Equal(bytes.TrimSpace(onDisk), want) {
		t.Fatalf("BENCHMARK.json is out of step with the tables; regenerate it with `go run ./perf -describe > BENCHMARK.json`")
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(onDisk, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", key)
		}
	}
	if len(doc) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(doc))
	}
}

func TestContractLineCarriesEveryMetricWithItsUnit(t *testing.T) {
	values := map[string]float64{}
	for _, d := range endToEnd {
		values[d.Name] = 1.5
	}
	line := contractLine(&result{Correct: true, Attempted: 10}, endToEnd, values)
	out, err := json.Marshal(line)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Metrics) != len(endToEnd) {
		t.Fatalf("%d metrics on the line, want %d", len(back.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if got := back.Metrics[d.Name]; got.Unit != d.Unit || got.Value != 1.5 {
			t.Errorf("%s: got %+v", d.Name, got)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "repro/internal/causal.Matrix.CopyFrom", "repro/internal/netsim.(*Wired).Send", "repro/internal/rdpcore.(*MSSNode).sendWired"}, "causal"},
		{[]string{"runtime.mallocgc", "repro/internal/wtp.(*Sender).Queue", "repro/internal/netsim.(*Wireless).SendDownlink"}, "wtp"},
		{[]string{"repro/internal/sim.(*Kernel).pop", "repro/internal/sim.(*Kernel).Step"}, "sim"},
		{[]string{"repro/internal/msg.DecodeInto[go.shape.struct {}]", "main.main"}, "msg"},
		{[]string{"repro/perf.(*calib).work", "repro/perf.(*calib).unit"}, layerHarness},
		{[]string{"main.(*calib).work", "main.main"}, layerHarness},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, layerRuntime},
		{nil, layerRuntime},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestProfileSharesDecodesARealProfile(t *testing.T) {
	c := newCalib()
	shares, samples, err := profileShares(func() {
		for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
			c.work()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("the profiler took no sample in 300 ms on this machine")
	}
	// Nothing but the harness ran (under -race many stacks end in the race
	// runtime and read as runtime): no sample may land on a program layer.
	if shares[layerHarness] == 0 || shares[layerHarness]+shares[layerRuntime] < 99.9 {
		t.Errorf("a loop of calibration units is charged to %v", shares)
	}
}

// tiny shrinks a workload to a fraction of a second with its shape and
// configuration intact.
func tiny(name string) *spec {
	s := *specByName(name)
	s.hosts = max(s.hosts/20, 4*max(s.regions, 1))
	s.horizon, s.flushAt, s.end = 4*time.Second, 4500*time.Millisecond, 24*time.Second
	s.slice, s.setupChunk, s.builds = 2*time.Second, max(s.hosts/2, 1), 1
	return &s
}

// Every workload, shrunk: the count repetition passes its own checks, a
// bare repetition replays it counter for counter, and so does one with
// every seam wrapped in span recorders (where wrappers reach).
func TestRepetitionsReplayTheCountRepetition(t *testing.T) {
	cal := newCalib()
	for _, full := range specs {
		s := tiny(full.name)
		for _, seed := range []int64{defaultSeed, 7} {
			in := s.generate(seed)
			c, _, err := s.countRep(in)
			if err != nil {
				t.Fatalf("%s seed %d: count repetition: %v", s.name, seed, err)
			}
			if c.out.issued == 0 || c.out.delivered != c.out.issued {
				t.Fatalf("%s seed %d: delivered %d of %d", s.name, seed, c.out.delivered, c.out.issued)
			}
			if c.latSamples == 0 || c.latP50 <= 0 || c.latP99 < c.latP50 {
				t.Errorf("%s seed %d: latency p50 %v p99 %v over %d samples", s.name, seed, c.latP50, c.latP99, c.latSamples)
			}
			if c.wiredMsgs() == 0 || c.radioFrames() == 0 || c.stationMsgs.Load() == 0 {
				t.Errorf("%s seed %d: wired %d radio %d station %d", s.name, seed, c.wiredMsgs(), c.radioFrames(), c.stationMsgs.Load())
			}
			rep, err := s.timedRep(in, cal, hooks{}, 1, &c.out)
			if err != nil {
				t.Fatalf("%s seed %d: bare repetition: %v", s.name, seed, err)
			}
			if rep.runSeconds <= 0 || len(rep.setups) != 1 || rep.setups[0] <= 0 {
				t.Errorf("%s seed %d: timings %+v", s.name, seed, rep)
			}
			if s.regions > 0 {
				continue
			}
			tr := newTracer()
			if _, err := s.timedRep(in, cal, hooks{tracer: tr}, 1, &c.out); err != nil {
				t.Fatalf("%s seed %d: traced repetition: %v", s.name, seed, err)
			}
			if len(tr.stack) != 0 {
				t.Errorf("%s: %d spans left open", s.name, len(tr.stack))
			}
			if tr.sum(spMSS).N != c.stationMsgs.Load() {
				t.Errorf("%s: %d station spans for %d station dispatches", s.name, tr.sum(spMSS).N, c.stationMsgs.Load())
			}
			if tr.sum(spWiredSend).N != c.wiredMsgs() {
				t.Errorf("%s: %d wired send spans for %d wired messages", s.name, tr.sum(spWiredSend).N, c.wiredMsgs())
			}
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	s := tiny("fault_recovery")
	a, b, c := s.generate(5), s.generate(5), s.generate(6)
	if a.requests != b.requests || len(a.plan.Disconnects) != len(b.plan.Disconnects) || a.plan.Crashes[0] != b.plan.Crashes[0] {
		t.Fatal("same seed, different inputs")
	}
	if a.hosts[0].reqs[0].At != b.hosts[0].reqs[0].At || a.hosts[0].start != b.hosts[0].start {
		t.Fatal("same seed, different first host")
	}
	if a.requests == c.requests && a.hosts[0].reqs[0].At == c.hosts[0].reqs[0].At {
		t.Fatal("different seeds, same inputs")
	}
}
