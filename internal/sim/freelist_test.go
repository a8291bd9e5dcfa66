package sim

import (
	"testing"
	"time"
)

type rec struct{ n int }

// take mimics a substrate's Get-or-allocate.
func take(l *FreeList[rec]) *rec {
	if r := l.Get(); r != nil {
		return r
	}
	return new(rec)
}

// TestFreeListAllocBudget: a steady load recycles and never trims.
func TestFreeListAllocBudget(t *testing.T) {
	var l FreeList[rec]
	held := make([]*rec, 0, 3000)
	cycle := func() {
		for i := 0; i < 3000; i++ {
			held = append(held, take(&l))
		}
		// Down to a third of the high-water and back: above the quarter
		// that would trim.
		for len(held) > 1000 {
			l.Put(held[len(held)-1])
			held = held[:len(held)-1]
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Errorf("steady cycle: %.1f allocs, budget 0", avg)
	}
}

// TestFreeListTrimsAfterBurst: once the records out fall below a quarter
// of the total, the list lets half of them go — and again as the load
// keeps falling — instead of pinning the burst for the rest of the run.
func TestFreeListTrimsAfterBurst(t *testing.T) {
	var l FreeList[rec]
	var held []*rec
	for i := 0; i < 8*shrinkMinCap; i++ {
		held = append(held, take(&l))
	}
	for _, r := range held[8:] {
		l.Put(r)
	}
	if total := l.out + len(l.free); l.out != 8 || total >= shrinkMinCap {
		t.Fatalf("after the burst: %d out, %d tracked; want 8 out and fewer than %d tracked", l.out, total, shrinkMinCap)
	}
	if cap(l.free) > 2*shrinkMinCap {
		t.Errorf("free list kept a backing array of %d", cap(l.free))
	}
	// What is left is still a working free list.
	r := l.Get()
	if r == nil {
		t.Fatal("trimmed list handed out nothing")
	}
	l.Put(r)
}

// TestCallsDeferAt: a call deferred to an absolute instant fires there,
// one deferred to a past instant fires now, and Out counts the calls
// not yet fired.
func TestCallsDeferAt(t *testing.T) {
	k := NewKernel(1)
	var fired []Time
	c := NewCalls(k, func(want Time) {
		if k.Now() != want {
			t.Errorf("call for %v fired at %v", want, k.Now())
		}
		fired = append(fired, want)
	})
	k.RunUntil(Time(10 * time.Millisecond))
	c.DeferAt(Time(15*time.Millisecond), Time(15*time.Millisecond))
	c.DeferAt(Time(5*time.Millisecond), Time(10*time.Millisecond))
	if c.Out() != 2 {
		t.Fatalf("Out = %d before the run, want 2", c.Out())
	}
	k.Run()
	if c.Out() != 0 || len(fired) != 2 || fired[0] != Time(10*time.Millisecond) {
		t.Errorf("after the run: Out = %d, fired %v", c.Out(), fired)
	}
}

// TestArenaTrimsWithTheQueue: events retired into an arena are released
// once the kernel drains its burst, like the kernel's private free list.
// The burst is spread over 63 slots, so the heap never holds more than
// one slot's 262 events: a trim keyed on the heap's capacity pins the
// whole burst in the arena.
func TestArenaTrimsWithTheQueue(t *testing.T) {
	a := NewArena()
	k := NewKernel(1)
	k.SetArena(a)
	fn := func() {}
	const burst = 16 * shrinkMinCap
	for i := 0; i < burst; i++ {
		k.Defer(time.Duration(i)*time.Microsecond, fn)
	}
	k.Run()
	checkDrained(t, k, a)
}
