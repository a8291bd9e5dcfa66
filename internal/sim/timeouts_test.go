package sim

import (
	"slices"
	"testing"
	"time"
)

// wrapSched wraps a kernel the way a tracing harness does: Now and RNG
// passed on, every Defer's callback wrapped in a closure of its own.
type wrapSched struct{ k *Kernel }

func (s wrapSched) Now() Time { return s.k.Now() }
func (s wrapSched) RNG() *RNG { return s.k.RNG() }
func (s wrapSched) Defer(d time.Duration, fn func()) {
	s.k.Defer(d, func() { fn() })
}

// clockSched is a scheduler without an event order of its own, as
// livenet's wall clock is: its random source is no kernel's.
type clockSched struct {
	k   *Kernel
	rng *RNG
}

func (s clockSched) Now() Time                        { return s.k.Now() }
func (s clockSched) RNG() *RNG                        { return s.rng }
func (s clockSched) Defer(d time.Duration, fn func()) { s.k.Defer(d, fn) }

// fuzzCall is what FuzzTimeouts adds: an identifier and the FIFO it waits
// in.
type fuzzCall struct{ id, fifo int }

// fuzzFire is one call that did something: when, and which.
type fuzzFire struct {
	at Time
	id int
}

// FuzzTimeouts holds Timeouts to its reference, a kernel on which every
// call is its own event that fires as a no-op once its call is dead. A
// program adds calls to four FIFOs (delays 0, 1 ms, 5 ms and 5 ms again),
// kills calls for good, defers unrelated events — at the instants the
// FIFOs' calls fall due among them — and runs both kernels to the same
// instants; a call that fires spawns a call into its own FIFO, or an
// unrelated event at its own instant. The first byte routes the Timeouts
// through a scheduler that wraps the kernel. After every run both sides
// must have fired the same live calls and events at the same instants in
// the same order, and once drained the Timeouts side must have run the
// reference's kernel steps less the calls it dropped.
func FuzzTimeouts(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0, 2, 0, 3, 3, 1, 0, 3, 7})
	f.Add([]byte{1, 0, 1, 0, 1, 0, 2, 1, 0, 2, 5, 3, 1, 0, 3, 1, 3, 9})
	f.Add([]byte{1, 0, 0, 0, 3, 2, 1, 0, 3, 0, 3, 1, 1, 3, 2, 2, 3, 1, 3, 4, 0, 2, 0, 3, 3, 8})
	f.Fuzz(func(t *testing.T, prog []byte) {
		pos := 0
		next := func() int {
			if pos >= len(prog) {
				return 0
			}
			pos++
			return int(prog[pos-1])
		}
		delays := []time.Duration{0, time.Millisecond, 5 * time.Millisecond, 5 * time.Millisecond}
		ka, kb := NewKernel(1), NewKernel(1)
		var sa Scheduler = ka
		if next()%2 == 1 {
			sa = wrapSched{ka}
		}
		dead := map[int]bool{}
		var ids []int
		var firedA, firedB []fuzzFire
		dropped := 0
		var fifos []*Timeouts[fuzzCall]
		var addB func(fuzzCall)
		// effects is what a live call does on one side: log itself, and
		// by its id spawn a call into its own FIFO or an unrelated event
		// at this instant.
		effects := func(k *Kernel, fired *[]fuzzFire, c fuzzCall, add func(fuzzCall)) {
			*fired = append(*fired, fuzzFire{k.Now(), c.id})
			switch {
			case c.id > 0 && c.id%4 == 0:
				add(fuzzCall{-c.id, c.fifo})
			case c.id > 0 && c.id%5 == 0:
				k.Defer(0, func() { *fired = append(*fired, fuzzFire{k.Now(), -1_000_000 - c.id}) })
			}
		}
		addA := func(c fuzzCall) { fifos[c.fifo].Add(c) }
		for _, d := range delays {
			fifos = append(fifos, NewTimeouts(sa, d, func(c fuzzCall) {
				if !dead[c.id] {
					effects(ka, &firedA, c, addA)
				}
			}, func(c fuzzCall) bool {
				if dead[c.id] {
					dropped++
					return true
				}
				return false
			}))
		}
		addB = func(c fuzzCall) {
			if c.id < 0 {
				ids = append(ids, c.id)
			}
			kb.Defer(delays[c.fifo], func() {
				if !dead[c.id] {
					effects(kb, &firedB, c, addB)
				}
			})
		}
		id, unrelated := 0, 0
		for step := 0; pos < len(prog); step++ {
			switch op := next() % 4; op {
			case 0: // add a call to both sides
				id++
				c := fuzzCall{id, next() % len(delays)}
				ids = append(ids, id)
				addA(c)
				addB(c)
			case 1: // kill a call, for good
				if len(ids) > 0 {
					dead[ids[next()%len(ids)]] = true
				}
			case 2: // an unrelated event, at an instant the FIFOs use
				unrelated++
				u := -2_000_000 - unrelated
				d := delays[next()%len(delays)] + time.Duration(next()%3)*time.Millisecond
				ka.Defer(d, func() { firedA = append(firedA, fuzzFire{ka.Now(), u}) })
				kb.Defer(d, func() { firedB = append(firedB, fuzzFire{kb.Now(), u}) })
			case 3: // run both to the same instant
				to := ka.Now() + Time(time.Duration(next()%8)*time.Millisecond)
				ka.RunUntil(to)
				kb.RunUntil(to)
				if !slices.Equal(firedA, firedB) {
					t.Fatalf("step %d: fired %v, reference %v", step, firedA, firedB)
				}
			}
		}
		ka.Run()
		kb.Run()
		if !slices.Equal(firedA, firedB) {
			t.Fatalf("drained: fired %v, reference %v", firedA, firedB)
		}
		if ka.Steps()+uint64(dropped) != kb.Steps() {
			t.Fatalf("drained: %d steps and %d calls dropped, reference %d steps", ka.Steps(), dropped, kb.Steps())
		}
		for i, q := range fifos {
			if q.Len() != 0 {
				t.Fatalf("FIFO %d holds %d calls after the drain", i, q.Len())
			}
		}
	})
}

// TestTimeoutsWithoutEventOrder: on a scheduler that has no kernel's
// event order (livenet's wall clock), each head is deferred by what is
// left of its delay, so every call still fires at its due.
func TestTimeoutsWithoutEventOrder(t *testing.T) {
	k := NewKernel(1)
	s := clockSched{k, NewRNG(1)}
	var fired []Time
	var q *Timeouts[Time]
	q = NewTimeouts(s, 10*time.Millisecond, func(want Time) {
		if k.Now() != want {
			t.Errorf("call due at %v fired at %v", want, k.Now())
		}
		fired = append(fired, want)
	}, func(Time) bool { return false })
	if q.k != nil {
		t.Fatal("found a kernel behind a scheduler that has none")
	}
	for _, at := range []Time{0, Time(3 * time.Millisecond), Time(3 * time.Millisecond), Time(7 * time.Millisecond)} {
		k.RunUntil(at)
		q.Add(at + Time(10*time.Millisecond))
	}
	k.Run()
	if len(fired) != 4 || q.Len() != 0 {
		t.Errorf("fired %v, %d left; want four calls, none left", fired, q.Len())
	}
}

// TestTimeoutsAllocBudget: a warm Timeouts allocates nothing — a call
// added, its head's event armed under its ticket, fired or dropped dead,
// and the block it sat in recycled through the spare list — while its
// FIFO, two blocks long, turns a block over in every measured run.
func TestTimeoutsAllocBudget(t *testing.T) {
	k := NewKernel(1)
	var q *Timeouts[int]
	fired, added := 0, 0
	q = NewTimeouts(k, 50*time.Millisecond, func(i int) {
		fired++
		if i%3 != 0 {
			q.Add(i + 1) // a retry chain of up to three calls
		}
	}, func(i int) bool { return i%7 == 0 })
	var tick func()
	tick = func() {
		added++
		q.Add(added)
		k.Defer(time.Millisecond, tick)
	}
	k.Defer(0, tick)
	op := func() { k.RunUntil(k.Now() + Time(timeoutBlockLen*time.Millisecond)) }
	for i := 0; i < 3; i++ {
		op()
	}
	if avg := testing.AllocsPerRun(20, op); avg != 0 {
		t.Errorf("Timeouts Add+fire steady state: %.1f allocs per %d adds, budget 0", avg, timeoutBlockLen)
	}
	if fired == 0 || q.Len() <= timeoutBlockLen {
		t.Fatalf("%d calls fired, %d waiting: the FIFO must span blocks", fired, q.Len())
	}
}
