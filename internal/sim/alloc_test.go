package sim

import (
	"testing"
	"time"
)

// TestKernelAllocBudget pins the scheduling fast path to zero
// allocations in the steady state: once the free list and the heap's
// backing array are warm, Defer+Step must recycle events rather than
// allocate them. testing.AllocsPerRun fails loudly if the free list
// regresses (e.g. an event leaks or a closure sneaks in).
func TestKernelAllocBudget(t *testing.T) {
	k := NewKernel(1)
	fn := func() {}
	// Warm up: grow the heap's backing array and populate the free list.
	for i := 0; i < 64; i++ {
		k.Defer(time.Duration(i)*time.Microsecond, fn)
	}
	k.Run()

	if avg := testing.AllocsPerRun(500, func() {
		k.Defer(time.Microsecond, fn)
		if !k.Step() {
			panic("kernel empty")
		}
	}); avg != 0 {
		t.Errorf("Defer+Step steady state: %.1f allocs/op, budget 0", avg)
	}
}

// TestFarTimerAllocBudget: a timer seconds ahead waits in the far tier,
// and filing it there, spreading its bucket over the wheel, pouring its
// slot into the heap and firing it recycle everything once warm. The load
// is a 3 s timer per step with steps 10 ms apart, so the measured window
// crosses four refills.
func TestFarTimerAllocBudget(t *testing.T) {
	k := NewKernel(1)
	fn := func() {}
	for i := 0; i < 300; i++ {
		k.Defer(time.Duration(i)*10*time.Millisecond, fn)
	}
	op := func() {
		k.Defer(3*time.Second, fn)
		if !k.Step() {
			panic("kernel empty")
		}
	}
	for i := 0; i < 1000; i++ {
		op()
	}
	before := k.Now()
	if avg := testing.AllocsPerRun(500, op); avg != 0 {
		t.Errorf("far Defer+Step steady state: %.1f allocs/op, budget 0", avg)
	}
	if crossed := (k.Now() - before) / bucketWidth; crossed < 4 {
		t.Fatalf("measured window crossed %d buckets, want several refills", crossed)
	}
}

// TestWheelAllocBudget: a warm kernel whose events cross slots, turn the
// wheel over to the next bucket and pour far buckets recycles everything.
// Chains of 1–200 ms hops land in later slots of the near bucket and in
// the next one, 3 s timers wait in the far tier, and each measured run is
// one bucket of virtual time: a full turn of the wheel and a far pour.
func TestWheelAllocBudget(t *testing.T) {
	k := NewKernel(1)
	rng := k.RNG()
	var hop, timer func()
	hop = func() { k.Defer(rng.Uniform(time.Millisecond, 200*time.Millisecond), hop) }
	timer = func() { k.Defer(3*time.Second, timer) }
	for i := 0; i < 64; i++ {
		hop()
		k.Defer(time.Duration(i)*47*time.Millisecond, timer)
	}
	turn := func() { k.RunUntil(k.Now() + bucketWidth) }
	for i := 0; i < 3; i++ {
		turn()
	}
	steps := k.Steps()
	if avg := testing.AllocsPerRun(5, turn); avg != 0 {
		t.Errorf("wheel Defer+Step steady state: %.1f allocs per turn, budget 0", avg)
	}
	if ran := k.Steps() - steps; ran < 6*64*5 {
		t.Fatalf("measured window ran %d steps, want several hundred a turn", ran)
	}
}

// preScheduled loads k with cell_mobility's measured shape: about 140 000
// events scheduled up front over 58 s of virtual time under about 550
// in-flight chains of 1–200 ms hops. Each pre-scheduled event re-arms
// 58 s after it fires, so the far load stays the same however many steps
// run. It returns after the kernel has settled into the steady mix.
func preScheduled(k *Kernel) {
	const (
		preScheduled = 140_000
		span         = 58 * time.Second
		inFlight     = 550
	)
	rng := k.RNG()
	var rearm, hop func()
	rearm = func() { k.Defer(span, rearm) }
	hop = func() { k.Defer(rng.Uniform(time.Millisecond, 200*time.Millisecond), hop) }
	for i := 0; i < preScheduled; i++ {
		k.Defer(rng.Uniform(0, span), rearm)
	}
	for i := 0; i < inFlight; i++ {
		hop()
	}
	k.RunLimit(preScheduled)
}

// TestHeapHoldsOneSlot: at cell_mobility's shape the heap holds one
// slot's events — a handful — not the near second's thousands. A
// structural pin: it fails without a timer if the heap goes deep again.
func TestHeapHoldsOneSlot(t *testing.T) {
	k := NewKernel(1)
	preScheduled(k)
	const steps, most = 100_000, 64
	sum, high := 0, 0
	for i := 0; i < steps; i++ {
		if !k.Step() {
			t.Fatal("kernel empty")
		}
		n := len(k.queue)
		sum += n
		high = max(high, n)
	}
	t.Logf("heap depth after each step: mean %.1f, max %d", float64(sum)/steps, high)
	if high > most {
		t.Errorf("heap held up to %d events, want at most %d", high, most)
	}
}

// BenchmarkKernelPreScheduled times a step at cell_mobility's measured
// shape (see preScheduled).
func BenchmarkKernelPreScheduled(b *testing.B) {
	k := NewKernel(1)
	preScheduled(k)
	b.ReportAllocs()
	b.ResetTimer()
	k.RunLimit(uint64(b.N))
}

// BenchmarkKernelDefer measures the scheduling fast path: a chain of
// 1 µs hops, each step firing one event and scheduling the next.
func BenchmarkKernelDefer(b *testing.B) {
	k := NewKernel(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		k.Defer(time.Microsecond, tick)
	}
	k.Defer(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	k.RunLimit(uint64(b.N))
}
