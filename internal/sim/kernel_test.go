package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.Defer(3*time.Second, func() { got = append(got, 3) })
	k.Defer(1*time.Second, func() { got = append(got, 1) })
	k.Defer(2*time.Second, func() { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != Time(3*time.Second) {
		t.Errorf("Now() = %v, want 3s", k.Now())
	}
}

func TestTieBreakIsInsertionOrder(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Defer(time.Second, func() { got = append(got, i) })
	}
	k.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events ran out of insertion order: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel(1)
	var fired []string
	k.Defer(time.Second, func() {
		fired = append(fired, "outer")
		k.Defer(time.Second, func() { fired = append(fired, "inner") })
	})
	k.Run()
	if len(fired) != 2 || fired[1] != "inner" {
		t.Fatalf("fired = %v", fired)
	}
	if k.Now() != Time(2*time.Second) {
		t.Errorf("Now() = %v, want 2s", k.Now())
	}
}

// TestTimerCancel holds After, the adapter over Defer: a cancelled call
// stays queued and fires as a counted no-op, and a nil callback panics.
func TestTimerCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	tm := k.After(time.Second, func() { fired = true })
	if !tm.Cancel() {
		t.Error("first Cancel should report true")
	}
	if tm.Cancel() {
		t.Error("second Cancel should report false")
	}
	if got := k.Pending(); got != 1 {
		t.Errorf("Pending after Cancel = %d, want 1: the event still fires", got)
	}
	k.Run()
	if fired {
		t.Error("cancelled call ran")
	}
	if k.Steps() != 1 || k.Now() != Time(time.Second) {
		t.Errorf("Steps %d at %v, want 1 at 1s: a cancelled call fires as a no-op", k.Steps(), k.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("After with a nil callback must panic")
		}
	}()
	k.After(time.Second, nil)
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	k := NewKernel(1)
	tm := k.After(0, func() {})
	k.Run()
	if tm.Cancel() {
		t.Error("Cancel after fire should report false")
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	var fired []int
	k.Defer(1*time.Second, func() { fired = append(fired, 1) })
	k.Defer(5*time.Second, func() { fired = append(fired, 5) })
	k.RunUntil(Time(3 * time.Second))
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired = %v, want [1]", fired)
	}
	if k.Now() != Time(3*time.Second) {
		t.Errorf("Now() = %v, want 3s", k.Now())
	}
	k.Run()
	if len(fired) != 2 {
		t.Errorf("remaining event did not run: %v", fired)
	}
}

func TestRunLimit(t *testing.T) {
	k := NewKernel(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		k.Defer(time.Millisecond, tick)
	}
	k.Defer(0, tick)
	if ran := k.RunLimit(100); ran != 100 {
		t.Fatalf("RunLimit ran %d, want 100", ran)
	}
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
}

func TestStopAndResume(t *testing.T) {
	k := NewKernel(1)
	count := 0
	k.Defer(1*time.Second, func() { count++; k.Stop() })
	k.Defer(2*time.Second, func() { count++ })
	k.Run()
	if count != 1 {
		t.Fatalf("count after Stop = %d, want 1", count)
	}
	k.Resume()
	k.Run()
	if count != 2 {
		t.Fatalf("count after Resume = %d, want 2", count)
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	k := NewKernel(1)
	k.Defer(time.Second, func() {
		k.Defer(-5*time.Second, func() {
			if k.Now() != Time(time.Second) {
				t.Errorf("clamped event ran at %v, want 1s", k.Now())
			}
		})
	})
	k.Run()
}

// A delay reaching past the last representable instant saturates there
// instead of wrapping into the past, where it would fire at once.
func TestHugeDelaySaturates(t *testing.T) {
	k := NewKernel(1)
	k.RunUntil(Time(time.Second))
	var fired []string
	k.Defer(math.MaxInt64, func() { fired = append(fired, "max") })
	k.Defer(math.MaxInt64-1, func() { fired = append(fired, "max-1") })
	k.Defer(time.Second, func() { fired = append(fired, "soon") })
	if !k.Step() || len(fired) != 1 || fired[0] != "soon" {
		t.Fatalf("first step fired %v, want [soon]", fired)
	}
	if at, ok := k.NextEventAt(); !ok || at != maxTime {
		t.Fatalf("NextEventAt = %v,%v; want the last instant", at, ok)
	}
	k.Run()
	if len(fired) != 3 || fired[1] != "max" || fired[2] != "max-1" || k.Now() != maxTime {
		t.Fatalf("fired %v ending at %v, want [soon max max-1] at the last instant", fired, k.Now())
	}
}

// Pending counts the events of all three tiers until they fire.
func TestPending(t *testing.T) {
	k := NewKernel(1)
	k.Defer(time.Second, func() {})
	k.Defer(2*time.Second, func() {})
	k.Defer(time.Millisecond, func() {})
	if got := k.Pending(); got != 3 {
		t.Fatalf("Pending = %d, want 3", got)
	}
	k.Step()
	if got := k.Pending(); got != 2 {
		t.Fatalf("Pending after a step = %d, want 2", got)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []int64 {
		k := NewKernel(seed)
		var trace []int64
		var step func()
		n := 0
		step = func() {
			trace = append(trace, int64(k.Now()), k.RNG().Int63())
			n++
			if n < 50 {
				k.Defer(k.RNG().Exp(100*time.Millisecond), step)
			}
		}
		k.Defer(0, step)
		k.Run()
		return trace
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestRNGProb(t *testing.T) {
	g := NewRNG(1)
	if g.Prob(0) {
		t.Error("Prob(0) must be false")
	}
	if !g.Prob(1) {
		t.Error("Prob(1) must be true")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if g.Prob(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.28 || frac > 0.32 {
		t.Errorf("Prob(0.3) frequency = %.3f", frac)
	}
}

func TestRNGUniformBounds(t *testing.T) {
	g := NewRNG(2)
	f := func(a, b uint32) bool {
		lo := time.Duration(a % 1000000)
		hi := time.Duration(b % 1000000)
		d := g.Uniform(lo, hi)
		if hi <= lo {
			return d == lo
		}
		return d >= lo && d <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGExp(t *testing.T) {
	g := NewRNG(3)
	if g.Exp(0) != 0 || g.Exp(-time.Second) != 0 {
		t.Error("non-positive mean must return 0")
	}
	var sum time.Duration
	const n = 50000
	mean := 200 * time.Millisecond
	for i := 0; i < n; i++ {
		sum += g.Exp(mean)
	}
	got := float64(sum) / n
	if got < 0.95*float64(mean) || got > 1.05*float64(mean) {
		t.Errorf("Exp mean = %v, want ~%v", time.Duration(got), mean)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	g := NewRNG(5)
	f1 := g.Fork()
	before := g.Int63()
	_ = f1.Int63() // draw from the fork...
	g2 := NewRNG(5)
	_ = g2.Fork()
	after := g2.Int63()
	if before != after {
		t.Error("drawing from a fork perturbed the parent stream")
	}
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("scheduling a nil callback must panic")
		}
	}()
	NewKernel(1).Defer(time.Second, nil)
}
