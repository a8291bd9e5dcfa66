package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchcmp"
)

func writeSnap(t *testing.T, dir, name string, allocsE1 float64) string {
	t.Helper()
	p := filepath.Join(dir, name)
	s := benchcmp.Snapshot{
		Stamp: name,
		Entries: []benchcmp.Entry{
			{Name: "e1", NsOp: 1e6, AllocsOp: allocsE1, MetricName: "ratio", Metric: 1},
		},
	}
	if err := benchcmp.Save(p, s); err != nil {
		t.Fatalf("save: %v", err)
	}
	return p
}

// TestPassAndFailExitCodes drives the CLI across a passing pair and a
// synthetically regressed pair.
func TestPassAndFailExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := writeSnap(t, dir, "base.json", 1000)
	same := writeSnap(t, dir, "same.json", 1050)
	worse := writeSnap(t, dir, "worse.json", 2000)

	var out bytes.Buffer
	code, err := run([]string{"-base", base, "-new", same}, &out)
	if err != nil || code != 0 {
		t.Fatalf("pass case: code=%d err=%v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Errorf("missing PASS line:\n%s", out.String())
	}

	out.Reset()
	code, err = run([]string{"-base", base, "-new", worse}, &out)
	if err != nil || code != 1 {
		t.Fatalf("regression case: code=%d err=%v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("missing REGRESSED marker:\n%s", out.String())
	}
}

// TestLooseThresholdOverride lets a caller widen the alloc gate.
func TestLooseThresholdOverride(t *testing.T) {
	dir := t.TempDir()
	base := writeSnap(t, dir, "base.json", 1000)
	worse := writeSnap(t, dir, "worse.json", 2000)
	var out bytes.Buffer
	code, err := run([]string{"-base", base, "-new", worse, "-alloc-ratio", "3"}, &out)
	if err != nil || code != 0 {
		t.Fatalf("widened gate still failed: code=%d err=%v\n%s", code, err, out.String())
	}
}

// TestTrajectoryMode renders the history table from dated snapshots in
// a bench dir, without needing -new at all.
func TestTrajectoryMode(t *testing.T) {
	dir := t.TempDir()
	writeSnap(t, dir, "BENCH_20260101T000000Z.json", 1000)
	p := filepath.Join(dir, "BENCH_20260201T000000Z.json")
	if err := benchcmp.Save(p, benchcmp.Snapshot{
		Stamp: "20260201T000000Z",
		Entries: []benchcmp.Entry{
			{Name: "e1", NsOp: 1e6, AllocsOp: 1000, MetricName: "ratio", Metric: 1},
			{Name: "e16", NsOp: 1e6, AllocsOp: 1000, MetricName: "state_reduction_ratio", Metric: 13.5},
		},
	}); err != nil {
		t.Fatalf("save: %v", err)
	}
	// baseline.json must not count as a trajectory point.
	writeSnap(t, dir, "baseline.json", 1000)

	var out bytes.Buffer
	code, err := run([]string{"-trajectory", "-bench-dir", dir}, &out)
	if err != nil || code != 0 {
		t.Fatalf("trajectory: code=%d err=%v\n%s", code, err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "2 snapshots") {
		t.Errorf("baseline.json counted as a snapshot:\n%s", s)
	}
	for _, want := range []string{"e1", "e16", "state_reduction_ratio", "13.5", "-"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in trajectory output:\n%s", want, s)
		}
	}

	out.Reset()
	if _, err := run([]string{"-trajectory", "-bench-dir", t.TempDir()}, &out); err == nil {
		t.Fatal("empty bench dir accepted")
	}
}

func TestMissingNewFlag(t *testing.T) {
	var out bytes.Buffer
	if _, err := run(nil, &out); err == nil {
		t.Fatal("missing -new accepted")
	}
}
