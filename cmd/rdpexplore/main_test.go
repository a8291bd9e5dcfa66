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

// TestRandomWalks runs a reduced random-schedule sweep over every
// scenario; any safety or liveness violation fails the run.
func TestRandomWalks(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-schedules", "40"}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "all schedules satisfied safety and liveness") {
		t.Errorf("missing success line:\n%s", out)
	}
	for _, sc := range []string{"tiny", "bounce-back-overlap", "two-hosts-crossing"} {
		if !strings.Contains(out, sc) {
			t.Errorf("scenario %q not reported", sc)
		}
	}
}

// TestExhaustiveComplete enumerates the tiny scenarios' schedule trees:
// the migration and sleep trees complete inside the budget; the bounce
// tree is explored as a DFS prefix.
func TestExhaustiveComplete(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-exhaustive", "-budget", "5000"}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, sc := range []string{"tiny-request-vs-migration", "tiny-request-vs-sleep", "tiny-request-vs-bounce"} {
		if !strings.Contains(out, sc) {
			t.Errorf("scenario %q not reported:\n%s", sc, out)
		}
	}
	if strings.Count(out, "complete=true") < 2 {
		t.Errorf("migration and sleep trees should both complete:\n%s", out)
	}
}

func TestBadFlag(t *testing.T) {
	if _, err := capture(t, func() error { return run([]string{"-nope"}) }); err == nil {
		t.Fatal("bad flag accepted")
	}
}
