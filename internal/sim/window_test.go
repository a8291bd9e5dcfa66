package sim

import (
	"testing"
	"time"
)

// StepUntil must execute strictly below the limit and leave the clock at
// the last executed event, so callers can inject more work anywhere in
// [now, limit) between windows.
func TestStepUntilIsExclusiveAndKeepsClock(t *testing.T) {
	k := NewKernel(1)
	var fired []time.Duration
	for _, d := range []time.Duration{1 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		d := d
		k.Defer(d, func() { fired = append(fired, d) })
	}
	ran := k.StepUntil(Time(2 * time.Millisecond))
	if ran != 1 || len(fired) != 1 || fired[0] != 1*time.Millisecond {
		t.Fatalf("StepUntil(2ms): ran=%d fired=%v", ran, fired)
	}
	if k.Now() != Time(1*time.Millisecond) {
		t.Fatalf("clock advanced to %v, want 1ms (limit must not drag the clock)", k.Now())
	}
	// An event injected inside the already-stepped window must still run
	// in timestamp order on the next window.
	k.DeferAt(Time(1500*time.Microsecond), func() { fired = append(fired, 1500*time.Microsecond) })
	k.StepUntil(Time(4 * time.Millisecond))
	want := []time.Duration{1 * time.Millisecond, 1500 * time.Microsecond, 2 * time.Millisecond, 3 * time.Millisecond}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestStepUntilBoundaryEventStaysQueued(t *testing.T) {
	k := NewKernel(1)
	ran := false
	k.Defer(5*time.Millisecond, func() { ran = true })
	if n := k.StepUntil(Time(5 * time.Millisecond)); n != 0 || ran {
		t.Fatalf("event at the limit executed (n=%d ran=%v); window is [_, limit)", n, ran)
	}
	if n := k.StepUntil(Time(5*time.Millisecond + 1)); n != 1 || !ran {
		t.Fatalf("event just below the next limit did not execute (n=%d ran=%v)", n, ran)
	}
}

func TestNextEventAt(t *testing.T) {
	k := NewKernel(1)
	if _, ok := k.NextEventAt(); ok {
		t.Fatal("empty kernel reported a next event")
	}
	k.DeferAt(Time(7*time.Millisecond), func() {})
	k.Defer(3*time.Millisecond, func() {})
	if at, ok := k.NextEventAt(); !ok || at != Time(3*time.Millisecond) {
		t.Fatalf("NextEventAt = %v,%v; want 3ms,true", at, ok)
	}
	k.Step()
	if at, ok := k.NextEventAt(); !ok || at != Time(7*time.Millisecond) {
		t.Fatalf("NextEventAt after a step = %v,%v; want 7ms,true", at, ok)
	}
}

func TestAdvanceTo(t *testing.T) {
	k := NewKernel(1)
	k.AdvanceTo(Time(10 * time.Millisecond))
	if k.Now() != Time(10*time.Millisecond) {
		t.Fatalf("Now = %v, want 10ms", k.Now())
	}
	k.AdvanceTo(Time(5 * time.Millisecond)) // backwards: no-op
	if k.Now() != Time(10*time.Millisecond) {
		t.Fatalf("AdvanceTo moved the clock backwards to %v", k.Now())
	}
	k.Defer(1*time.Millisecond, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo past a pending event did not panic")
		}
	}()
	k.AdvanceTo(Time(20 * time.Millisecond))
}

// A burst must not pin its high-water memory for the rest of the run:
// not the heap's backing array, not the free list's growth, and — for a
// burst scheduled over a minute — not the far tier, which keeps only a
// header per pending bucket. The near burst packs about 2 600 events
// into each of 13 slots, so the heap grows past shrinkMinCap one slot at
// a time and a kernel that never shrinks keeps it.
func TestQueueShrinksAfterBurst(t *testing.T) {
	const burst = 1 << 15
	for _, tc := range []struct {
		name string
		span time.Duration
	}{
		{"near", burst * 100 * time.Nanosecond},
		{"pre-scheduled", 60 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel(1)
			for i := 0; i < burst; i++ {
				k.Defer(time.Duration(i)*(tc.span/burst), func() {})
			}
			if tc.span > time.Duration(bucketWidth) && len(k.queue) > 16 {
				t.Fatalf("heap holds %d of %d events spread over %v, want one slot's share", len(k.queue), burst, tc.span)
			}
			k.Run()
			checkDrained(t, k, nil)
			// The kernel must still work after shrinking.
			ran := 0
			for i := 0; i < 100; i++ {
				k.Defer(time.Duration(i)*time.Microsecond, func() { ran++ })
			}
			k.Run()
			if ran != 100 {
				t.Fatalf("post-shrink events ran %d/100", ran)
			}
		})
	}
}

// checkDrained fails unless k, its queue empty, has let its bursts go:
// the heap's backing array is below shrinkMinCap, the private free list
// holds at most shrinkMinCap retired events in an array of at most twice
// that, the arena a (when one was attached) holds at most shrinkMinCap,
// no wheel slot is marked occupied, and the far tier holds no bucket and
// kept room for at most 128 bucket headers.
func checkDrained(t *testing.T, k *Kernel, a *Arena) {
	t.Helper()
	if c := cap(k.queue); c >= shrinkMinCap {
		t.Errorf("drained heap kept cap=%d, want < %d", c, shrinkMinCap)
	}
	if f, c := len(k.free), cap(k.free); f > shrinkMinCap || c > 2*shrinkMinCap {
		t.Errorf("free list kept %d retired events in an array of %d, want <= %d in <= %d", f, c, shrinkMinCap, 2*shrinkMinCap)
	}
	if a != nil && len(a.free) > shrinkMinCap {
		t.Errorf("arena kept %d retired events, want <= %d", len(a.free), shrinkMinCap)
	}
	for i, w := range k.occupied {
		if w != 0 {
			t.Errorf("occupancy word %d reads %#x after the drain, want 0", i, w)
		}
	}
	if n, c := len(k.far), cap(k.far); n != 0 || c > 128 {
		t.Errorf("drained far tier holds %d buckets in %d headers, want 0 in at most 128", n, c)
	}
}

// Near churn that inflates the heap past shrinkMinCap and drains it,
// second after second, under a load pre-scheduled for the rest of the
// run: neither the heap nor the free list may shrink as one second's
// refill drains only to be regrown, allocating, the next.
func TestSawtoothUnderFarLoadAllocBudget(t *testing.T) {
	k := NewKernel(1)
	fn := func() {}
	const far = 16 * shrinkMinCap
	const span = 64 * time.Second
	for i := 0; i < far; i++ {
		k.Defer(time.Second+time.Duration(i)*(span/far), fn)
	}
	saw := func() {
		next := (k.Now()/bucketWidth + 1) * bucketWidth
		for i := 0; i < 4*shrinkMinCap; i++ {
			k.Defer(time.Duration(i)*time.Microsecond, fn)
		}
		k.RunUntil(next)
	}
	saw()
	saw()
	if allocs := testing.AllocsPerRun(20, saw); allocs > 0 {
		t.Fatalf("sawtooth over a far load allocates %.1f/second, want 0", allocs)
	}
	if k.Now() >= Time(span) {
		t.Fatalf("far load ran out at %v", k.Now())
	}
}

// A load pre-scheduled for a minute drains through the near tiers a
// bucket at a time, a few hundred events at once under sparse chains of
// 1–200 ms hops. Half way through, the retired events the free list
// keeps are sized by that in-flight work, never by the far load behind
// it: no more than the heap and wheel held at once, or shrinkMinCap. A
// list sized by everything scheduled keeps every event the load has
// fired so far.
func TestFreeListShrinksUnderFarLoad(t *testing.T) {
	k := NewKernel(1)
	rng := k.RNG()
	fn := func() {}
	const far = 16 * shrinkMinCap
	const span = 64 * time.Second
	for i := 0; i < far; i++ {
		k.Defer(time.Duration(i)*(span/far), fn)
	}
	var hop func()
	hop = func() { k.Defer(rng.Uniform(time.Millisecond, 200*time.Millisecond), hop) }
	for i := 0; i < 16; i++ {
		hop()
	}
	high := 0
	for k.Now() < Time(span/2) {
		high = max(high, nearEvents(k))
		k.Step()
	}
	t.Logf("free list %d events at %v; the near tiers held at most %d", len(k.free), k.Now(), high)
	if limit := max(high, shrinkMinCap); len(k.free) > limit {
		t.Errorf("free list keeps %d retired events half way through a far load, want at most %d", len(k.free), limit)
	}
}

// nearEvents counts the events in k's heap and wheel.
func nearEvents(k *Kernel) int {
	n := len(k.queue)
	for _, e := range k.wheel {
		for ; e != nil; e = e.next {
			n++
		}
	}
	return n
}

// Steady-state alloc budget around the shrink path: a sawtooth load that
// repeatedly grows to a sub-threshold size and drains must stay
// allocation-free once warm (the shrink threshold exists precisely so
// the common case never reallocates).
func TestShrinkDoesNotBreakSteadyStateAllocs(t *testing.T) {
	k := NewKernel(1)
	saw := func() {
		for i := 0; i < shrinkMinCap/2; i++ {
			k.Defer(time.Duration(i), func() {})
		}
		k.Run()
	}
	saw() // warm the free list and heap
	allocs := testing.AllocsPerRun(20, saw)
	if allocs > 0 {
		t.Fatalf("sub-threshold sawtooth allocates %.1f/run, want 0", allocs)
	}
}
