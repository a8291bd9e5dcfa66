package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	runErr := fn()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("read pipe: %v", err)
	}
	return string(out), runErr
}

// TestVirtualRun drives a small world on the simulation kernel; the run
// must end with the invariant check passing and full delivery.
func TestVirtualRun(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-mhs", "6", "-mss", "4", "-duration", "5s", "-residence", "800ms"})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"invariants: OK", "undelivered: 0", "protocol violations           0"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestVirtualRunAblations exercises the flag paths that flip protocol
// switches (ablation, optimization, retry, loss).
func TestVirtualRunAblations(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-mhs", "4", "-duration", "4s", "-no-causal", "-hold",
			"-loss", "0.05", "-retry", "2s", "-refresh", "1s"})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "invariants: OK") {
		t.Errorf("output missing invariant confirmation:\n%s", out)
	}
}

// TestLiveRun exercises the goroutine/wall-clock runtime briefly.
func TestLiveRun(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock run")
	}
	out, err := capture(t, func() error {
		return run([]string{"-live", "-mhs", "3", "-mss", "3", "-duration", "400ms",
			"-interarrival", "100ms", "-residence", "150ms", "-server", "20ms"})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "invariants: OK") {
		t.Errorf("live run missing invariant confirmation:\n%s", out)
	}
}

// TestTCPRun exercises the real-socket transport end to end from the
// command line path.
func TestTCPRun(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock run")
	}
	out, err := capture(t, func() error {
		return run([]string{"-tcp", "-mhs", "3", "-mss", "3", "-duration", "400ms",
			"-interarrival", "100ms", "-residence", "150ms", "-server", "20ms"})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "invariants: OK") {
		t.Errorf("tcp run missing invariant confirmation:\n%s", out)
	}
}

// TestTCPRejectsLinkSettings: -loss and -no-causal configure layers the
// TCP substrate does not have, so combined with -tcp they must fail
// naming the Config field rather than run loss-free and causal.
func TestTCPRejectsLinkSettings(t *testing.T) {
	for _, tc := range []struct {
		field string
		args  []string
	}{
		{"Config.WirelessLoss", []string{"-tcp", "-loss", "0.1"}},
		{"Config.Causal", []string{"-tcp", "-no-causal"}},
	} {
		_, err := capture(t, func() error { return run(tc.args) })
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%v: error %v, want one naming %s", tc.args, err, tc.field)
		}
	}
}

func TestBadFlag(t *testing.T) {
	if _, err := capture(t, func() error { return run([]string{"-nope"}) }); err == nil {
		t.Fatal("bad flag accepted")
	}
}
