// Command benchcmp compares two rdpbench -json snapshots and fails on
// regression. It is the gate behind `make bench-compare`:
//
//	benchcmp -base bench/baseline.json -new /tmp/current.json
//
// With -trajectory it instead reads every dated BENCH_*.json snapshot
// under -bench-dir in stamp order and prints the per-experiment
// headline-metric history — the growth record nothing rendered before.
//
// Allocation counts are gated strictly (the simulator is deterministic,
// so allocs/op barely moves between runs of the same code), wall times
// are reported but not gated by default (CI machines are noisy), and
// the per-experiment headline metric must match the baseline
// near-exactly — a seeded simulation that produces different numbers
// has changed behavior, not just speed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/benchcmp"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run returns the process exit code: 0 on pass, 1 on regression.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	var (
		basePath   = fs.String("base", "bench/baseline.json", "baseline snapshot")
		newPath    = fs.String("new", "", "current snapshot (required)")
		allocRatio = fs.Float64("alloc-ratio", 0, "allocs/op regression threshold (0 = default 1.25)")
		nsRatio    = fs.Float64("ns-ratio", 0, "ns/op regression threshold (0 = report only)")
		metricTol  = fs.Float64("metric-tol", 0, "headline metric relative tolerance (0 = default 1e-9)")
		regressRat = fs.Float64("regress-ratio", 0, "lower-is-better metric regression threshold (0 = default 1.10)")
		trajectory = fs.Bool("trajectory", false, "print the headline-metric history across bench-dir's BENCH_*.json snapshots")
		benchDir   = fs.String("bench-dir", "bench", "directory holding dated BENCH_*.json snapshots (with -trajectory)")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *trajectory {
		return runTrajectory(*benchDir, stdout)
	}
	if *newPath == "" {
		return 2, fmt.Errorf("missing -new snapshot")
	}
	base, err := benchcmp.Load(*basePath)
	if err != nil {
		return 2, err
	}
	cur, err := benchcmp.Load(*newPath)
	if err != nil {
		return 2, err
	}
	opts := benchcmp.DefaultOptions()
	if *allocRatio > 0 {
		opts.AllocRatio = *allocRatio
	}
	if *nsRatio > 0 {
		opts.NsRatio = *nsRatio
	}
	if *metricTol > 0 {
		opts.MetricTol = *metricTol
	}
	if *regressRat > 0 {
		opts.RegressRatio = *regressRat
	}
	findings, failed := benchcmp.Compare(base, cur, opts)
	fmt.Fprintf(stdout, "baseline %s (%s) vs current %s (%s)\n",
		*basePath, base.Stamp, *newPath, cur.Stamp)
	for _, f := range findings {
		fmt.Fprintln(stdout, f.String())
	}
	if failed {
		fmt.Fprintln(stdout, "FAIL: benchmark regression against baseline")
		return 1, nil
	}
	fmt.Fprintln(stdout, "PASS: within thresholds")
	return 0, nil
}

// runTrajectory loads every BENCH_*.json under dir in name order (the
// names embed UTC stamps, so lexical order is chronological) and prints
// the per-experiment headline-metric history.
func runTrajectory(dir string, stdout io.Writer) (int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return 2, err
	}
	if len(paths) == 0 {
		return 2, fmt.Errorf("no BENCH_*.json snapshots in %s", dir)
	}
	sort.Strings(paths)
	var (
		labels []string
		snaps  []benchcmp.Snapshot
	)
	for _, p := range paths {
		s, err := benchcmp.Load(p)
		if err != nil {
			return 2, err
		}
		label := s.Stamp
		if label == "" {
			label = strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".json")
		}
		labels = append(labels, label)
		snaps = append(snaps, s)
	}
	table, err := benchcmp.FormatTrajectory(labels, snaps)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(stdout, "headline-metric trajectory across %d snapshots in %s\n", len(snaps), dir)
	fmt.Fprint(stdout, table)
	return 0, nil
}
