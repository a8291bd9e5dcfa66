package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// runBuf runs the CLI with output captured in a buffer.
func runBuf(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, &buf)
	return buf.String(), err
}

// TestQuickSingleExperiment runs one experiment at reduced scale and
// checks the table header reaches the writer.
func TestQuickSingleExperiment(t *testing.T) {
	out, err := runBuf(t, "-quick", "-exp", "e1")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "E1") {
		t.Errorf("output missing E1 header:\n%s", out)
	}
	if strings.Contains(out, "E2") {
		t.Error("-exp e1 also ran E2")
	}
}

// TestQuickExperimentList runs a comma-separated subset.
func TestQuickExperimentList(t *testing.T) {
	out, err := runBuf(t, "-quick", "-exp", "e4, e6")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"E4", "E6"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %s header", want)
		}
	}
}

// TestCSVMode checks the -csv rendering path.
func TestCSVMode(t *testing.T) {
	out, err := runBuf(t, "-quick", "-exp", "e6", "-csv")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, ",") {
		t.Errorf("CSV output has no commas:\n%s", out)
	}
}

// TestQuickAll runs the complete evaluation at reduced scale — the same
// path `rdpbench -quick` takes — and checks every registry entry's
// block is present, in registry order.
func TestQuickAll(t *testing.T) {
	out, err := runBuf(t, "-quick")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	at := 0
	for _, e := range experiments.Registry {
		header := "=== " + strings.ToUpper(e.Name) + " — "
		i := strings.Index(out[at:], header)
		if i < 0 {
			t.Fatalf("full run: %s block missing or out of registry order", e.Name)
		}
		at += i + len(header)
	}
	if n := strings.Count(out, "\n=== "); n != len(experiments.Registry) {
		t.Errorf("full run printed %d blocks, the registry has %d entries", n, len(experiments.Registry))
	}
}

// TestParallelMatchesSerial is the determinism check for -parallel: the
// concurrent run must produce byte-identical output to the serial one.
// The subset spans both light and heavy experiments so buffers finish
// out of order.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	args := []string{"-quick", "-exp", "e2,e4,e6,e8"}
	serial, err := runBuf(t, args...)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	parallel, err := runBuf(t, append(args, "-parallel", "4")...)
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if serial != parallel {
		t.Errorf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestE14SmokeFlags runs the e14 CI-smoke shape — a single tier
// override at a single worker count — and checks exactly one row comes
// back, clean.
func TestE14SmokeFlags(t *testing.T) {
	out, err := runBuf(t, "-quick", "-exp", "e14", "-e14tier", "8:200:4:2", "-workers", "2")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "=== E14") {
		t.Fatalf("output missing E14 header:\n%s", out)
	}
	if n := strings.Count(out, "true"); n != 1 {
		t.Errorf("E14 smoke: %d rows marked headline-eq true, want exactly 1:\n%s", n, out)
	}
}

// TestBadE14Flags rejects malformed -e14tier and -workers values.
func TestBadE14Flags(t *testing.T) {
	if _, err := runBuf(t, "-exp", "e14", "-e14tier", "8:200:4"); err == nil {
		t.Error("short -e14tier accepted")
	}
	if _, err := runBuf(t, "-exp", "e14", "-workers", "0"); err == nil {
		t.Error("-workers 0 accepted")
	}
}

// TestNoMatch rejects experiment names that match nothing.
func TestNoMatch(t *testing.T) {
	if _, err := runBuf(t, "-exp", "e42"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestBadFlag(t *testing.T) {
	if _, err := runBuf(t, "-nope"); err == nil {
		t.Fatal("bad flag accepted")
	}
}
