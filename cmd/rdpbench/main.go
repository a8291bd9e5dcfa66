// Command rdpbench regenerates the evaluation of the RDP paper: every
// experiment of DESIGN.md (E1–E18) as a printed table. Run all of them,
// or a subset:
//
//	rdpbench                 # everything, standard scale
//	rdpbench -exp e3,e5      # selected experiments
//	rdpbench -quick          # reduced scale (seconds instead of minutes)
//	rdpbench -seed 7         # different random seed
//	rdpbench -parallel 4     # run experiments concurrently
//	rdpbench -json           # write a BENCH_<stamp>.json snapshot
//	rdpbench -exp e13 -regions 2 -serial   # e13 at a fixed partition, serial
//	rdpbench -exp e14 -e14tier 64:50000:16:3 -workers 8   # one e14 smoke row
//	rdpbench -cpuprofile cpu.pprof         # profile the run
//
// Experiments are independent simulations, so -parallel runs them on
// separate goroutines; each renders into its own buffer and the buffers
// are emitted in experiment order, so the output is byte-identical to a
// serial run. -json instead runs serially (timings would otherwise
// contend) and records per-experiment wall time, allocations, and a
// headline metric in the snapshot format compared by `make
// bench-compare` (see internal/benchcmp).
//
// The tables printed here are the source of EXPERIMENTS.md.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/benchcmp"
	"repro/internal/experiments"
	"repro/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rdpbench:", err)
		os.Exit(1)
	}
}

// runSpec couples an experiment's table printer with its snapshot
// measurement (the headline metric doubles as the measured workload).
type runSpec struct {
	name   string
	print  func(r *renderer, seed int64, sc experiments.Scale)
	metric func(seed int64, sc experiments.Scale) (string, float64)
}

var allRuns = []runSpec{
	{"e1", printE1, metricE1},
	{"e2", printE2, metricE2},
	{"e3", printE3, metricE3},
	{"e4", printE4, metricE4},
	{"e5", printE5, metricE5},
	{"e6", printE6, metricE6},
	{"e7", printE7, metricE7},
	{"e8", printE8, metricE8},
	{"e9", printE9, metricE9},
	{"e10", printE10, metricE10},
	{"e11", printE11, metricE11},
	{"e12", printE12, metricE12},
	{"e13", printE13, metricE13},
	{"e14", printE14, metricE14},
	{"e15", printE15, metricE15},
	{"e15lat", printE15Lat, metricE15Lat},
	{"e16", printE16, metricE16},
	{"e17", printE17, metricE17},
	{"e18", printE18, metricE18},
}

// auxFuncs attaches informational measurements to a -json snapshot
// entry (benchcmp.Entry.Aux). They ride the snapshot but are never
// gated by benchcmp; experiments memoize their sweeps, so computing
// them after the timed metric run costs nothing.
var auxFuncs = map[string]func(seed int64, sc experiments.Scale) map[string]float64{
	"e15": auxE15,
}

// e13RegionList/e13Workers carry the -regions/-serial flags into the
// E13 spec functions (the runSpec signature is shared by all
// experiments, so these ride package state set once before any run).
var (
	e13RegionList []int // nil = the scale's default sweep
	e13Workers    int   // 0 = one worker per core, 1 = serial
)

// e14TierList/e14WorkerList carry the -e14tier/-workers flags into the
// E14 spec functions the same way.
var (
	e14TierList   []experiments.E14Tier // nil = the scale's default tiers
	e14WorkerList []int                 // nil = the scale's worker sweep
)

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rdpbench", flag.ContinueOnError)
	var (
		expFlag = fs.String("exp", "all", "comma-separated experiments to run (e1..e18, e15lat, or all)")
		seed    = fs.Int64("seed", 1, "random seed")
		quick   = fs.Bool("quick", false, "reduced scale for a fast pass")
		csv     = fs.Bool("csv", false, "emit tables as CSV instead of aligned text")
		par     = fs.Int("parallel", 1, "experiments to run concurrently (output order is unchanged)")
		jsonOut = fs.Bool("json", false, "write a benchmark snapshot instead of tables")
		outFlag = fs.String("out", "", "snapshot path for -json (default BENCH_<stamp>.json)")
		regions = fs.String("regions", "", "comma-separated region counts for e13 (default: the scale's sweep)")
		serial  = fs.Bool("serial", false, "run the e13 parallel engine with one worker (the serial reference)")
		workers = fs.String("workers", "", "comma-separated worker counts for e14 (default: the scale's sweep)")
		e14tier = fs.String("e14tier", "", "e14 tier override as cells:mhs:regions:horizonSec (the CI smoke tier)")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf = fs.String("memprofile", "", "write a heap profile taken after the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	e13RegionList = nil
	if *regions != "" {
		for _, s := range strings.Split(*regions, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				return fmt.Errorf("bad -regions value %q", s)
			}
			e13RegionList = append(e13RegionList, n)
		}
	}
	e13Workers = 0
	if *serial {
		e13Workers = 1
	}
	e14WorkerList = nil
	if *workers != "" {
		for _, s := range strings.Split(*workers, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				return fmt.Errorf("bad -workers value %q", s)
			}
			e14WorkerList = append(e14WorkerList, n)
		}
	}
	e14TierList = nil
	if *e14tier != "" {
		tier, ok := experiments.ParseE14Tier(*e14tier)
		if !ok {
			return fmt.Errorf("bad -e14tier value %q (want cells:mhs:regions:horizonSec)", *e14tier)
		}
		e14TierList = []experiments.E14Tier{tier}
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			os.Remove(*cpuProf)
			return err
		}
		// Runs on every exit path, early errors included: the profile is
		// flushed by StopCPUProfile before the close, and a close failure
		// (full disk, dead NFS handle) is reported instead of silently
		// truncating the profile.
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "rdpbench: cpuprofile:", err)
			}
		}()
	}
	if *memProf != "" {
		// Create up front so an unwritable path fails before the run, not
		// after minutes of benchmarking.
		f, err := os.Create(*memProf)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "rdpbench: memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "rdpbench: memprofile:", err)
			}
		}()
	}
	sc := experiments.DefaultScale()
	scName := "default"
	if *quick {
		sc = experiments.SmallScale()
		scName = "quick"
	}

	want := make(map[string]bool)
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	all := want["all"]
	var sel []runSpec
	for _, r := range allRuns {
		if all || want[r.name] {
			sel = append(sel, r)
		}
	}
	if len(sel) == 0 {
		return fmt.Errorf("no experiment matched %q (use e1..e18, e15lat, or all)", *expFlag)
	}

	if *jsonOut {
		return runJSON(stdout, sel, *seed, sc, scName, *outFlag)
	}

	n := *par
	if n < 1 {
		n = 1
	}
	if n == 1 {
		rd := &renderer{w: stdout, csv: *csv}
		for _, r := range sel {
			r.print(rd, *seed, sc)
		}
		return nil
	}

	// Parallel: every experiment renders into a private buffer; buffers
	// are then written in selection order, so output bytes are identical
	// to the serial path regardless of scheduling.
	bufs := make([]bytes.Buffer, len(sel))
	sem := make(chan struct{}, n)
	var wg sync.WaitGroup
	for i, r := range sel {
		wg.Add(1)
		go func(i int, r runSpec) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			r.print(&renderer{w: &bufs[i], csv: *csv}, *seed, sc)
		}(i, r)
	}
	wg.Wait()
	for i := range bufs {
		if _, err := stdout.Write(bufs[i].Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// runJSON measures each selected experiment serially — wall time,
// allocation count (runtime.MemStats deltas), and headline metric — and
// writes the snapshot to out (or BENCH_<stamp>.json).
func runJSON(stdout io.Writer, sel []runSpec, seed int64, sc experiments.Scale, scName, out string) error {
	snap := benchcmp.Snapshot{
		Stamp: time.Now().UTC().Format("20060102T150405Z"),
		Go:    runtime.Version(),
		Scale: scName,
		Seed:  seed,
	}
	var ms0, ms1 runtime.MemStats
	for _, r := range sel {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		name, val := r.metric(seed, sc)
		ns := time.Since(t0).Nanoseconds()
		runtime.ReadMemStats(&ms1)
		e := benchcmp.Entry{
			Name:       r.name,
			NsOp:       float64(ns),
			AllocsOp:   float64(ms1.Mallocs - ms0.Mallocs),
			BytesOp:    float64(ms1.TotalAlloc - ms0.TotalAlloc),
			MetricName: name,
			Metric:     val,
		}
		// Aux rides outside the timed window: the sweep behind it is
		// already memoized by the metric call above.
		if fn := auxFuncs[r.name]; fn != nil {
			e.Aux = fn(seed, sc)
		}
		snap.Entries = append(snap.Entries, e)
		fmt.Fprintf(stdout, "%-5s %12d ns %12d allocs  %s=%g\n",
			r.name, ns, ms1.Mallocs-ms0.Mallocs, name, val)
	}
	if out == "" {
		out = "BENCH_" + snap.Stamp + ".json"
	}
	if err := benchcmp.Save(out, snap); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", out)
	return nil
}

// renderer writes one experiment's tables to its destination in the
// selected format. Each concurrent experiment owns its renderer.
type renderer struct {
	w   io.Writer
	csv bool
}

// emit prints a table in the selected format.
func (r *renderer) emit(t *metrics.Table) {
	if r.csv {
		io.WriteString(r.w, t.CSV())
		return
	}
	io.WriteString(r.w, t.String())
}

func (r *renderer) header(id, claim string) {
	fmt.Fprintf(r.w, "\n=== %s — %s ===\n\n", id, claim)
}

func f(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }
func d(v int64) string             { return strconv.FormatInt(v, 10) }
func dur(v time.Duration) string   { return v.Round(time.Millisecond).String() }

func printE1(r *renderer, seed int64, sc experiments.Scale) {
	r.header("E1", "reliability: every result delivered despite migrations and inactivity (§5)")
	t := metrics.NewTable("residence", "inactive-p", "issued", "delivered", "ratio", "handoffs", "retrans")
	for _, row := range experiments.E1Reliability(seed, sc) {
		t.AddRow(dur(row.MeanResidence), f(row.InactiveProb, 2), d(row.Issued), d(row.Delivered),
			f(row.Ratio, 4), d(row.Handoffs), d(row.Retrans))
	}
	r.emit(t)
}

func metricE1(seed int64, sc experiments.Scale) (string, float64) {
	min := 1.0
	for _, row := range experiments.E1Reliability(seed, sc) {
		if row.Ratio < min {
			min = row.Ratio
		}
	}
	return "min_delivery_ratio", min
}

func printE2(r *renderer, seed int64, sc experiments.Scale) {
	r.header("E2", "exactly-once needs causal order + ack priority (§5)")
	t := metrics.NewTable("variant", "issued", "delivered", "duplicates", "violations", "ignored-acks")
	for _, row := range experiments.E2ExactlyOnce(seed, sc) {
		t.AddRow(row.Name, d(row.Issued), d(row.Delivered), d(row.Duplicates), d(row.Violations), d(row.IgnoredAcks))
	}
	r.emit(t)
}

func metricE2(seed int64, sc experiments.Scale) (string, float64) {
	var dups int64
	for _, row := range experiments.E2ExactlyOnce(seed, sc) {
		dups += row.Duplicates
	}
	return "total_duplicates", float64(dups)
}

func printE3(r *renderer, seed int64, sc experiments.Scale) {
	r.header("E3", "retransmissions vanish once residence exceeds t_wired+t_wireless (§5)")
	t := metrics.NewTable("residence", "res/threshold", "results", "retrans", "retrans/result")
	for _, row := range experiments.E3RetransmissionThreshold(seed, sc) {
		t.AddRow(dur(row.MeanResidence), f(row.ThresholdRatio, 1), d(row.Results), d(row.Retrans), f(row.RetransPerResult, 4))
	}
	r.emit(t)
}

func metricE3(seed int64, sc experiments.Scale) (string, float64) {
	var retrans int64
	for _, row := range experiments.E3RetransmissionThreshold(seed, sc) {
		retrans += row.Retrans
	}
	return "total_retrans", float64(retrans)
}

func printE4(r *renderer, seed int64, sc experiments.Scale) {
	r.header("E4", "overhead = one update per migration/reactivation + one relayed ack per result (§5)")
	t := metrics.NewTable("residence", "updates", "predicted", "coverage", "ack-fwds", "predicted", "match")
	for _, row := range experiments.E4Overhead(seed, sc) {
		t.AddRow(dur(row.MeanResidence), d(row.UpdateCurrLocs), d(row.PredictedUpdates), f(row.UpdateCoverage, 3),
			d(row.AckForwards), d(row.PredictedAcks), fmt.Sprint(row.Match))
	}
	r.emit(t)
}

func metricE4(seed int64, sc experiments.Scale) (string, float64) {
	var updates int64
	for _, row := range experiments.E4Overhead(seed, sc) {
		updates += row.UpdateCurrLocs
	}
	return "update_msgs", float64(updates)
}

func printE5(r *renderer, seed int64, sc experiments.Scale) {
	r.header("E5", "dynamic proxies balance forwarding load; fixed home agents concentrate it (§1, §4)")
	t := metrics.NewTable("protocol", "jain-index", "max/mean", "per-station load")
	for _, row := range experiments.E5LoadBalance(seed, sc) {
		loads := make([]string, len(row.Loads))
		for i, l := range row.Loads {
			loads[i] = f(l, 0)
		}
		t.AddRow(row.Protocol, f(row.Jain, 3), f(row.MaxOverMean, 2), strings.Join(loads, " "))
	}
	r.emit(t)

	fmt.Fprintln(r.w, "\nE5b — population shift: share of forwarding work carried by the 2 hotspot cells")
	t2 := metrics.NewTable("protocol", "roaming phase", "after shift downtown")
	for _, row := range experiments.E5DynamicShift(seed, sc) {
		t2.AddRow(row.Protocol, f(row.Phase1Hotspot, 3), f(row.Phase2Hotspot, 3))
	}
	r.emit(t2)
}

func metricE5(seed int64, sc experiments.Scale) (string, float64) {
	best := 0.0
	for _, row := range experiments.E5LoadBalance(seed, sc) {
		if row.Jain > best {
			best = row.Jain
		}
	}
	// Include the population-shift half so E5's measured cost matches
	// what the table path runs.
	_ = experiments.E5DynamicShift(seed, sc)
	return "max_jain", best
}

func printE6(r *renderer, seed int64, sc experiments.Scale) {
	r.header("E6", "hand-off state: RDP ships one pref; indirect images grow with load (§4, §5)")
	t := metrics.NewTable("pending", "rdp B/handoff", "itcp B/handoff", "rdp p95", "itcp p95", "rdp-del", "itcp-del")
	for _, row := range experiments.E6HandoffState(seed, sc) {
		t.AddRow(strconv.Itoa(row.PendingRequests), f(row.RDPBytesPerHO, 0), f(row.ITCPBytesPerHO, 0),
			dur(row.RDPHandoffP95), dur(row.ITCPHandoffP95), d(row.RDPDelivered), d(row.ITCPDelivered))
	}
	r.emit(t)
}

func metricE6(seed int64, sc experiments.Scale) (string, float64) {
	var bytes float64
	for _, row := range experiments.E6HandoffState(seed, sc) {
		bytes += row.RDPBytesPerHO
	}
	return "rdp_bytes_per_handoff_sum", bytes
}

func printE7(r *renderer, seed int64, sc experiments.Scale) {
	r.header("E7", "Mobile IP loses datagrams under mobility; upper-layer recovery costs latency (§4)")
	t := metrics.NewTable("protocol", "residence", "issued", "delivered", "ratio", "mean-lat", "p50", "p95", "p99")
	for _, row := range experiments.E7VsMobileIP(seed, sc) {
		t.AddRow(row.Protocol, dur(row.MeanResidence), d(row.Issued), d(row.Delivered),
			f(row.Ratio, 4), dur(row.MeanLatency), dur(row.P50Latency), dur(row.P95Latency), dur(row.P99Latency))
	}
	r.emit(t)
}

func metricE7(seed int64, sc experiments.Scale) (string, float64) {
	var delivered int64
	for _, row := range experiments.E7VsMobileIP(seed, sc) {
		delivered += row.Delivered
	}
	return "delivered_total", float64(delivered)
}

func printE8(r *renderer, seed int64, sc experiments.Scale) {
	r.header("E8", "asynchronous subscription notifications reach roaming subscribers (§3)")
	t := metrics.NewTable("residence", "subs", "fired", "received", "ratio", "remote-ops", "mean-hops")
	for _, row := range experiments.E8Subscriptions(seed, sc) {
		t.AddRow(dur(row.MeanResidence), d(row.Subscriptions), d(row.Fired), d(row.Received),
			f(row.Ratio, 4), d(row.RemoteOps), f(row.MeanHops, 2))
	}
	r.emit(t)
}

func metricE8(seed int64, sc experiments.Scale) (string, float64) {
	var received int64
	for _, row := range experiments.E8Subscriptions(seed, sc) {
		received += row.Received
	}
	return "received_total", float64(received)
}

func printE9(r *renderer, seed int64, sc experiments.Scale) {
	r.header("E9", "ablation: holding results for inactive hosts saves retransmissions (§5 fn.3)")
	t := metrics.NewTable("inactive-p", "hold", "delivered", "retrans", "drops", "held", "mean-lat", "updates")
	for _, row := range experiments.E9HoldForInactive(seed, sc) {
		t.AddRow(f(row.InactiveProb, 2), fmt.Sprint(row.Hold), d(row.Delivered), d(row.Retrans),
			d(row.WirelessDrops), d(row.HeldResults), dur(row.MeanLatency), d(row.UpdateCurrLocs))
	}
	r.emit(t)
}

func metricE9(seed int64, sc experiments.Scale) (string, float64) {
	var retrans int64
	for _, row := range experiments.E9HoldForInactive(seed, sc) {
		retrans += row.Retrans
	}
	return "retrans_total", float64(retrans)
}

func printE10(r *renderer, seed int64, sc experiments.Scale) {
	r.header("E10", "wired faults + MSS crashes: ARQ + checkpoint recovery restores exactly-once delivery")
	t := metrics.NewTable("loss", "crashes", "recovery", "issued", "delivered", "ratio", "dups", "wired-drops", "rec-resends", "ho-reissues", "ckpt-ops")
	for _, row := range experiments.E10WiredFaults(seed, sc) {
		t.AddRow(f(row.Loss, 2), strconv.Itoa(row.Crashes), fmt.Sprint(row.Recovery), d(row.Issued), d(row.Delivered),
			f(row.Ratio, 4), d(row.Duplicates), d(row.WiredDrops), d(row.RecoveryResends), d(row.HandoffReissues), d(row.CheckpointOps))
	}
	r.emit(t)
}

func metricE10(seed int64, sc experiments.Scale) (string, float64) {
	var delivered int64
	for _, row := range experiments.E10WiredFaults(seed, sc) {
		delivered += row.Delivered
	}
	return "delivered_total", float64(delivered)
}

func printE11(r *renderer, seed int64, sc experiments.Scale) {
	r.header("E11", "overload: admission + priorities + backoff plateau at capacity; retries alone collapse")
	t := metrics.NewTable("offered-x", "protected", "issued", "delivered", "refusals", "retries", "abandoned", "dups", "goodput%", "p99-lat", "inbox-peak", "shed", "lost-admitted")
	for _, row := range experiments.E11Overload(seed, sc) {
		t.AddRow(f(row.OfferedX, 1), fmt.Sprint(row.Protected), d(row.Issued), d(row.Delivered),
			d(row.Refusals), d(row.ClientRetries), d(row.Abandoned), d(row.Duplicates),
			f(row.GoodputPct, 1), dur(row.P99Latency), d(row.InboxPeak), d(row.NetworkShed), d(row.LostAdmitted))
	}
	r.emit(t)
}

func metricE11(seed int64, sc experiments.Scale) (string, float64) {
	var delivered int64
	for _, row := range experiments.E11Overload(seed, sc) {
		delivered += row.Delivered
	}
	return "delivered_total", float64(delivered)
}

func printE12(r *renderer, seed int64, sc experiments.Scale) {
	r.header("E12", "proxy migration bounds forwarding hops and spreads placement; static anchors drift")
	t := metrics.NewTable("policy", "issued", "delivered", "ratio", "mean-hops", "worst", "mean-lat", "p95-lat", "migrations", "refused", "mig-msgs", "mig-bytes", "jain", "dups")
	for _, row := range experiments.E12Migration(seed, sc) {
		t.AddRow(row.Policy, d(row.Issued), d(row.Delivered), f(row.Ratio, 4), f(row.MeanHops, 2), d(row.WorstHops),
			dur(row.MeanLatency), dur(row.P95Latency), d(row.Migrations), d(row.Refused),
			d(row.MigMsgs), d(row.MigBytes), f(row.Jain, 3), d(row.Dups))
	}
	r.emit(t)
}

func metricE12(seed int64, sc experiments.Scale) (string, float64) {
	var delivered int64
	for _, row := range experiments.E12Migration(seed, sc) {
		delivered += row.Delivered
	}
	return "delivered_total", float64(delivered)
}

func printE13(r *renderer, seed int64, sc experiments.Scale) {
	r.header("E13", "parallel engine: region partitions reproduce the serial headline exactly and scale out")
	t := metrics.NewTable("cells", "mhs", "regions", "issued", "delivered", "ratio", "dups", "missing", "handoffs", "xframes", "wall", "speedup", "headline-eq")
	for _, row := range experiments.E13Scale(seed, sc, e13RegionList, e13Workers) {
		t.AddRow(strconv.Itoa(row.Cells), strconv.Itoa(row.MHs), strconv.Itoa(row.Regions),
			d(row.Issued), d(row.Delivered), f(row.Ratio, 4), d(row.Duplicates),
			strconv.Itoa(row.Missing), d(row.Handoffs), d(row.CrossFrames),
			dur(row.Wall), f(row.Speedup, 2), fmt.Sprint(row.HeadlineEq))
	}
	r.emit(t)
}

func printE15(r *renderer, seed int64, sc experiments.Scale) {
	r.header("E15", "windowed wireless transport: coalescing + AIMD window vs stop-and-wait and I-TCP")
	t := metrics.NewTable("loss", "offered-x", "transport", "offered", "delivered", "goodput%", "p99-lat",
		"retrans", "resets", "frames", "msgs/frame", "dups", "lost-admitted")
	for _, row := range experiments.E15WindowedTransport(seed, sc) {
		perFrame := 0.0
		if row.Frames > 0 {
			perFrame = float64(row.FrameMsgs) / float64(row.Frames)
		}
		lost := d(row.LostAdmitted)
		if row.LostAdmitted < 0 {
			lost = "-" // the I-TCP baseline has no admission accounting
		}
		t.AddRow(f(row.Loss, 2), f(row.OfferedX, 1), row.Transport, d(row.Offered), d(row.Delivered),
			f(row.GoodputPct, 1), dur(row.P99Latency), d(row.Retransmits), d(row.Resets),
			d(row.Frames), f(perFrame, 2), d(row.Duplicates), lost)
	}
	r.emit(t)

	fmt.Fprintln(r.w, "\nE15b — per-link transport profile (RTT/RTO/cwnd histograms, WTP rows only)")
	t2 := metrics.NewTable("loss", "offered-x", "transport", "rtt-p50", "rtt-p99", "rto-p50", "cwnd-mean", "retrans")
	for _, row := range experiments.E15WindowedTransport(seed, sc) {
		if row.CwndMean == 0 { // plain and I-TCP rows carry no WTP link state
			continue
		}
		t2.AddRow(f(row.Loss, 2), f(row.OfferedX, 1), row.Transport, dur(row.RttP50), dur(row.RttP99),
			dur(row.RtoP50), f(row.CwndMean, 2), d(row.Retransmits))
	}
	r.emit(t2)
}

// printE15Lat is the table half of the e15lat snapshot entry; the grid
// is the same memoized sweep, focused on the latency columns.
func printE15Lat(r *renderer, seed int64, sc experiments.Scale) {
	r.header("E15lat", "windowed wireless transport: p99 result latency at the headline grid point")
	t := metrics.NewTable("loss", "offered-x", "transport", "p99-lat")
	for _, row := range experiments.E15WindowedTransport(seed, sc) {
		if row.Loss != 0.10 || row.OfferedX != 2 {
			continue
		}
		t.AddRow(f(row.Loss, 2), f(row.OfferedX, 1), row.Transport, dur(row.P99Latency))
	}
	r.emit(t)
}

// metricE15 is the snapshot headline: windowed over stop-and-wait
// goodput at the headline grid point (10% loss, 2× the stop-and-wait
// ceiling), forced to -1 whenever a windowed row breaks a guarantee —
// a lost admitted request, a duplicate delivery, or headline p99 worse
// than stop-and-wait — so the e15-smoke benchcmp gate fails on a broken
// transport, not just a slow one.
func metricE15(seed int64, sc experiments.Scale) (string, float64) {
	rows := experiments.E15WindowedTransport(seed, sc)
	for _, row := range rows {
		if row.Transport == "windowed" && (row.LostAdmitted != 0 || row.Duplicates != 0) {
			return "guarded_goodput_ratio", -1
		}
	}
	w, s, ok := experiments.E15Headline(rows)
	if !ok || s.GoodputPct <= 0 || w.P99Latency > s.P99Latency {
		return "guarded_goodput_ratio", -1
	}
	return "guarded_goodput_ratio", w.GoodputPct / s.GoodputPct
}

// auxE15 records the windowed transport's link profile at the headline
// grid point — the RTT/RTO/cwnd histogram summaries and the
// retransmission counter — in the snapshot's informational aux map, so
// the trajectory of committed snapshots keeps the transport's shape
// alongside the gated goodput ratio.
func auxE15(seed int64, sc experiments.Scale) map[string]float64 {
	w, _, ok := experiments.E15Headline(experiments.E15WindowedTransport(seed, sc))
	if !ok {
		return nil
	}
	ms := float64(time.Millisecond)
	return map[string]float64{
		"rtt_p50_ms":       float64(w.RttP50) / ms,
		"rtt_p99_ms":       float64(w.RttP99) / ms,
		"rto_p50_ms":       float64(w.RtoP50) / ms,
		"cwnd_mean_frames": w.CwndMean,
		"retransmits":      float64(w.Retransmits),
		"frames":           float64(w.Frames),
		"frame_msgs":       float64(w.FrameMsgs),
	}
}

// metricE15Lat is the latency half of the E15 gate: the windowed
// transport's p99 result latency at the headline grid point, in
// milliseconds. benchcmp treats p99_latency_ms as regress-only
// (lower is better), so CI fails only when the tail grows.
func metricE15Lat(seed int64, sc experiments.Scale) (string, float64) {
	w, _, ok := experiments.E15Headline(experiments.E15WindowedTransport(seed, sc))
	if !ok {
		return "p99_latency_ms", -1
	}
	return "p99_latency_ms", float64(w.P99Latency) / float64(time.Millisecond)
}

func printE16(r *renderer, seed int64, sc experiments.Scale) {
	r.header("E16", "aggregated location state: O(hosts) → O(cells·servers) station memory at subscriber scale")
	t := metrics.NewTable("mhs", "stations", "mode", "issued", "delivered", "dups", "missing",
		"state-B/MSS", "outstanding", "signaling", "handoffs", "shared-proxies", "notifs",
		"state-redux", "sig-redux", "peak-rss", "wall")
	for _, row := range experiments.E16Aggregation(seed, sc) {
		mode := "faithful"
		if row.Aggregated {
			mode = "aggregated"
		}
		redux, sig := "-", "-"
		if row.Aggregated && row.Reduction != 0 {
			redux, sig = f(row.Reduction, 1)+"x", f(row.SigReduction, 1)+"x"
		}
		t.AddRow(strconv.Itoa(row.MHs), strconv.Itoa(row.Stations), mode,
			d(row.Issued), d(row.Delivered), d(row.Duplicates), strconv.Itoa(row.Missing),
			f(row.PerMSS, 0), d(row.Outstanding), d(row.Signaling), d(row.Handoffs),
			d(row.SharedProxies), d(row.Notifications), redux, sig,
			metrics.FormatBytes(row.PeakRSS, row.PeakRSSOK), dur(row.Wall))
	}
	r.emit(t)
}

// metricE16 is the snapshot headline: the minimum guarded state
// reduction across the paired tiers. Each pair's guard (computed by the
// sweep itself) licenses the ratio only when both representations
// delivered exactly the same results with zero losses and duplicates,
// and the unpaired 1M top tier must be equally clean — any violation
// forces -1, so the e16-smoke benchcmp gate fails on a representation
// that cheats on delivery, not just one that stops shrinking state.
// benchcmp registers state_reduction_ratio as DirHigherBetter.
func metricE16(seed int64, sc experiments.Scale) (string, float64) {
	min := -1.0
	for _, row := range experiments.E16Aggregation(seed, sc) {
		if row.Missing != 0 || row.Duplicates != 0 {
			return "state_reduction_ratio", -1
		}
		if !row.Aggregated {
			continue
		}
		if row.Reduction < 0 {
			return "state_reduction_ratio", -1
		}
		if row.Reduction > 0 && (min < 0 || row.Reduction < min) {
			min = row.Reduction
		}
	}
	return "state_reduction_ratio", min
}

func printE17(r *renderer, seed int64, sc experiments.Scale) {
	r.header("E17", "disconnected operation: offline queue + atomic batches + station result cache")
	t := metrics.NewTable("disc-dur", "crashes", "migration", "issued", "delivered", "lost", "replayed",
		"batches", "b-del", "b-abort", "b-partial", "migrations", "hits", "misses", "stale", "hit-ratio")
	for _, row := range experiments.E17Disconnected(seed, sc) {
		t.AddRow(dur(row.DisconnectDur), strconv.Itoa(row.Crashes), fmt.Sprint(row.Migration),
			d(row.Issued), d(row.Delivered), d(row.Lost), d(row.Replayed),
			d(row.Batches), d(row.BatchDelivered), d(row.BatchAborted), d(row.BatchPartial),
			d(row.Migrations), d(row.CacheHits), d(row.CacheMisses), d(row.CacheStale), f(row.HitRatio, 4))
	}
	r.emit(t)
}

// metricE17 is the snapshot headline: the minimum cache hit ratio
// across the sweep, forced to -1 whenever any row loses a request or
// partially delivers a batch — benchcmp then fails the e17-smoke gate
// on either a broken guarantee or a collapsed cache.
func metricE17(seed int64, sc experiments.Scale) (string, float64) {
	min := 1.0
	for _, row := range experiments.E17Disconnected(seed, sc) {
		if row.Lost > 0 || row.BatchPartial > 0 {
			return "guarded_min_hit_ratio", -1
		}
		if row.HitRatio < min {
			min = row.HitRatio
		}
	}
	return "guarded_min_hit_ratio", min
}

func printE18(r *renderer, seed int64, sc experiments.Scale) {
	r.header("E18", "mobile-host crash/amnesia recovery: incarnation-scoped delivery + lease-based orphan reclamation")
	t := metrics.NewTable("disc-dur", "mss-crash", "migration", "mh-crash", "mh-restart", "issued", "delivered",
		"lost", "orphaned", "x-inc", "reclaimed", "heartbeats", "stale-drops", "journal-drops",
		"migrations", "batches", "b-del", "b-abort", "b-partial", "leaked")
	for _, row := range experiments.E18MHCrash(seed, sc) {
		leaked := "none"
		if row.Leaked != "" {
			leaked = row.Leaked
		}
		t.AddRow(dur(row.DisconnectDur), strconv.Itoa(row.MSSCrashes), fmt.Sprint(row.Migration),
			d(row.MHCrashes), d(row.MHRestarts), d(row.Issued), d(row.Delivered),
			d(row.Lost), d(row.Orphaned), d(row.CrossIncDeliveries), d(row.Reclaimed),
			d(row.Heartbeats), d(row.StaleDrops), d(row.DroppedOffline), d(row.Migrations),
			d(row.Batches), d(row.BatchDelivered), d(row.BatchAborted), d(row.BatchPartial), leaked)
	}
	r.emit(t)
}

// metricE18 is the snapshot headline: the survivor-scope delivery ratio
// across the sweep, forced to -1 whenever any row loses a survivor
// request, delivers a result across an incarnation boundary, partially
// delivers a batch, or leaks dead-incarnation proxy state past the
// quiescence sweep — benchcmp then fails the e18-smoke gate on any
// broken guarantee.
func metricE18(seed int64, sc experiments.Scale) (string, float64) {
	var issued, delivered, orphaned int64
	for _, row := range experiments.E18MHCrash(seed, sc) {
		if row.Lost > 0 || row.CrossIncDeliveries > 0 || row.BatchPartial > 0 || row.Leaked != "" {
			return "guarded_survivor_delivery", -1
		}
		issued += row.Issued
		delivered += row.Delivered
		orphaned += row.Orphaned
	}
	if survivors := issued - orphaned; survivors > 0 {
		return "guarded_survivor_delivery", float64(delivered) / float64(survivors)
	}
	return "guarded_survivor_delivery", -1
}

func printE14(r *renderer, seed int64, sc experiments.Scale) {
	r.header("E14", "multi-core engine: worker count never changes a byte; wall-clock and RSS at scale")
	t := metrics.NewTable("cells", "mhs", "regions", "workers", "cores", "issued", "delivered",
		"ratio", "dups", "missing", "xframes", "build", "wall", "speedup", "peak-rss", "headline-eq")
	for _, row := range experiments.E14Scale(seed, sc, e14TierList, e14WorkerList) {
		t.AddRow(strconv.Itoa(row.Cells), strconv.Itoa(row.MHs), strconv.Itoa(row.Regions),
			strconv.Itoa(row.Workers), strconv.Itoa(row.Cores),
			d(row.Issued), d(row.Delivered), f(row.Ratio, 4), d(row.Duplicates),
			strconv.Itoa(row.Missing), d(row.CrossFrames), dur(row.Build), dur(row.Wall),
			f(row.Speedup, 2), metrics.FormatBytes(row.PeakRSS, row.PeakRSSOK), fmt.Sprint(row.HeadlineEq))
	}
	r.emit(t)
}

// metricE14 is the snapshot headline: total delivered across the sweep,
// forced to -1 whenever a row breaks full-Summary equality with its
// tier's baseline row. The e14-smoke CI job compares -workers 1 and
// -workers 8 snapshots of the same tier with benchcmp, so the metric
// must be worker-invariant — which is exactly the property E14 pins.
func metricE14(seed int64, sc experiments.Scale) (string, float64) {
	var delivered int64
	for _, row := range experiments.E14Scale(seed, sc, e14TierList, e14WorkerList) {
		if !row.HeadlineEq {
			return "delivered_total", -1
		}
		delivered += row.Delivered
	}
	return "delivered_total", float64(delivered)
}

// metricE13 is the snapshot headline: total delivered across the sweep.
// The e13-smoke CI job compares a -serial snapshot against a parallel
// one with benchcmp, so the metric must not depend on worker count —
// delivered totals are exactly worker-invariant by the engine's
// determinism guarantee.
func metricE13(seed int64, sc experiments.Scale) (string, float64) {
	var delivered int64
	for _, row := range experiments.E13Scale(seed, sc, e13RegionList, e13Workers) {
		delivered += row.Delivered
	}
	return "delivered_total", float64(delivered)
}
