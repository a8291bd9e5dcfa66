package sim

import (
	"math"
	"slices"
	"sort"
	"testing"
	"time"
)

// modelEvent is one pending event of the reference model.
type modelEvent struct {
	at  Time
	seq uint64
	id  int
}

// kernelModel is the reference FuzzKernel holds the kernel to: a slice of
// pending events kept sorted by (at, seq), a clock, a step count and the
// ids fired so far. It schedules and fires exactly what the kernel's
// contract says, with none of its mechanism.
type kernelModel struct {
	now     Time
	pending []modelEvent
	nextSeq uint64
	steps   uint64
	fired   []int
}

func (m *kernelModel) schedule(at Time, id int) uint64 {
	if at < m.now {
		at = m.now
	}
	i := sort.Search(len(m.pending), func(i int) bool { return m.pending[i].at > at })
	m.pending = slices.Insert(m.pending, i, modelEvent{at, m.nextSeq, id})
	m.nextSeq++
	return m.nextSeq - 1
}

func (m *kernelModel) cancel(seq uint64) bool {
	for i, e := range m.pending {
		if e.seq == seq {
			m.pending = slices.Delete(m.pending, i, i+1)
			return true
		}
	}
	return false
}

// step fires the earliest event, scheduling the child a spawning event
// schedules when the kernel runs it.
func (m *kernelModel) step() bool {
	if len(m.pending) == 0 {
		return false
	}
	e := m.pending[0]
	m.pending = slices.Delete(m.pending, 0, 1)
	m.now = e.at
	m.steps++
	m.fired = append(m.fired, e.id)
	if spawns(e.id) {
		m.schedule(addSat(m.now, childDelay(e.id)), -e.id)
	}
	return true
}

// stepWhile fires events while the earliest one satisfies ok.
func (m *kernelModel) stepWhile(ok func(Time) bool) uint64 {
	var ran uint64
	for len(m.pending) > 0 && ok(m.pending[0].at) {
		m.step()
		ran++
	}
	return ran
}

// spawns says whether the event with this id schedules a child when it
// fires; children (negative ids) never do, so every program terminates.
func spawns(id int) bool { return id > 0 && id%3 == 0 }

// childDelay is how far ahead a spawning event schedules its child: up
// to two seconds, so children land in the current bucket and in later
// ones.
func childDelay(id int) time.Duration { return time.Duration(id%5) * 500 * time.Millisecond }

// addSat is now+d clamped to [0, maxTime], the instant the kernel's
// After and Defer compute.
func addSat(now Time, d time.Duration) Time {
	if d >= 0 && Time(d) > maxTime-now {
		return maxTime
	}
	if now+Time(d) < 0 {
		return 0
	}
	return now + Time(d)
}

// FuzzKernel drives the kernel with a program of schedules (Defer, After,
// At and DeferAt, in the current slot, across slots and buckets, at their
// edges and a wheel turn ahead, tied, past and saturating), cancellations
// (stale handles included), Step, RunUntil, StepUntil, AdvanceTo,
// NextEventAt and arena attach/detach, and after every call compares the
// fire order, Now, Steps and Pending with the reference model's. The
// seed corpus under testdata/fuzz/FuzzKernel replays the wheel's hazards
// on every plain test run: a slot poured by a peek (NextEventAt,
// StepUntil) before an event lands below it, a cancelled event waiting in
// the wheel, and the wheel turning over from one bucket to the next.
func FuzzKernel(f *testing.F) {
	f.Add([]byte{0, 1, 5, 1, 3, 4, 5, 0, 5, 5, 5})
	f.Add([]byte{1, 3, 2, 1, 3, 5, 4, 0, 6, 3, 9, 9, 0, 4, 2, 7, 3, 7, 5, 8, 2, 200, 5, 5})
	f.Add([]byte{0, 4, 1, 0, 4, 3, 0, 4, 0, 2, 7, 8, 4, 1, 6, 1, 50, 8, 3, 3, 5, 5, 5, 9, 6, 5, 0})
	f.Add([]byte{3, 6, 9, 0, 0, 1, 5, 3, 2, 3, 2, 1, 4, 0, 4, 1, 6, 5, 0, 7, 4, 0, 8, 3, 1, 6, 3, 9})
	f.Fuzz(func(t *testing.T, prog []byte) {
		pos := 0
		next := func() int {
			if pos >= len(prog) {
				return 0
			}
			pos++
			return int(prog[pos-1])
		}
		k := NewKernel(1)
		arena := NewArena()
		m := &kernelModel{}
		var got []int
		lastAt := Time(0)
		id := 0
		type handle struct {
			c   Canceler
			seq uint64
		}
		var handles []handle

		// delay draws a delay relative to now from one of the classes
		// the three tiers treat differently.
		delay := func() time.Duration {
			now := k.Now()
			switch next() % 11 {
			case 0:
				return 0
			case 1: // within a few milliseconds
				return time.Duration(next()) * 37 * time.Microsecond
			case 2: // within the second
				return time.Duration(next()) * 4 * time.Millisecond
			case 3: // across several (possibly empty) buckets
				return time.Duration(next()%8)*time.Second + time.Duration(next())*time.Millisecond
			case 4: // at a bucket boundary, or one nanosecond either side
				edge := bucketWidth - now%bucketWidth
				return time.Duration(edge) + time.Duration(next()%3-1)
			case 5: // past the last representable instant
				return math.MaxInt64 - time.Duration(next())
			case 6: // into the past
				return -time.Duration(next()) * time.Millisecond
			case 7: // the instant last scheduled: a tie
				return time.Duration(lastAt - now)
			case 8: // at a slot boundary a few slots on, or 1 ns either side
				edge := slotWidth - now%slotWidth + Time(next()%4)*slotWidth
				return time.Duration(edge) + time.Duration(next()%3-1)
			case 9: // one wheel turn ahead, or 1 ns either side
				return time.Duration(wheelSize*slotWidth) + time.Duration(next()%3-1)
			default: // into the last slot before a bucket boundary
				edge := bucketWidth - now%bucketWidth - slotWidth
				return time.Duration(edge) + time.Duration(next()%3-1)
			}
		}
		fn := func(id int) func() {
			return func() {
				got = append(got, id)
				if spawns(id) {
					k.Defer(childDelay(id), func() { got = append(got, -id) })
				}
			}
		}

		for step := 0; pos < len(prog); step++ {
			op := next() % 11
			switch op {
			case 0, 1, 2, 3:
				id++
				d := delay()
				at := addSat(k.Now(), d) // the model clamps a past instant to now
				lastAt = max(at, k.Now())
				var seq uint64
				switch op {
				case 0:
					k.Defer(d, fn(id))
					seq = m.schedule(at, id)
				case 1:
					c := k.After(d, fn(id))
					seq = m.schedule(at, id)
					handles = append(handles, handle{c, seq})
				case 2:
					c := k.At(at, fn(id))
					seq = m.schedule(at, id)
					handles = append(handles, handle{c, seq})
				case 3:
					k.DeferAt(at, fn(id))
					m.schedule(at, id)
				}
			case 4:
				if len(handles) == 0 {
					continue
				}
				h := handles[next()%len(handles)]
				if g, w := h.c.Cancel(), m.cancel(h.seq); g != w {
					t.Fatalf("step %d: Cancel of seq %d = %v, model %v", step, h.seq, g, w)
				}
			case 5:
				if g, w := k.Step(), m.step(); g != w {
					t.Fatalf("step %d: Step = %v, model %v", step, g, w)
				}
			case 6:
				d := addSat(k.Now(), delay())
				k.RunUntil(d)
				m.stepWhile(func(at Time) bool { return at <= d })
				m.now = max(m.now, d)
			case 7:
				l := addSat(k.Now(), delay())
				if g, w := k.StepUntil(l), m.stepWhile(func(at Time) bool { return at < l }); g != w {
					t.Fatalf("step %d: StepUntil(%v) ran %d, model %d", step, l, g, w)
				}
			case 8:
				to := addSat(k.Now(), delay())
				wantPanic := to > m.now && len(m.pending) > 0 && m.pending[0].at < to
				panicked := func() (p bool) {
					defer func() { p = recover() != nil }()
					k.AdvanceTo(to)
					return false
				}()
				if panicked != wantPanic {
					t.Fatalf("step %d: AdvanceTo(%v) panicked=%v, model %v", step, to, panicked, wantPanic)
				}
				if !wantPanic {
					m.now = max(m.now, to)
				}
			case 9:
				if next()%2 == 0 {
					k.SetArena(arena)
				} else {
					k.SetArena(nil)
				}
			case 10:
				at, ok := k.NextEventAt()
				if w := len(m.pending) > 0; ok != w || ok && at != m.pending[0].at {
					t.Fatalf("step %d: NextEventAt = %v,%v; model %v", step, at, ok, m.pending)
				}
			}
			if !slices.Equal(got, m.fired) {
				t.Fatalf("step %d (op %d): fired %v, model %v", step, op, got, m.fired)
			}
			if k.Now() != m.now || k.Steps() != m.steps || k.Pending() != len(m.pending) {
				t.Fatalf("step %d (op %d): Now %v Steps %d Pending %d, model %v %d %d",
					step, op, k.Now(), k.Steps(), k.Pending(), m.now, m.steps, len(m.pending))
			}
		}
	})
}
