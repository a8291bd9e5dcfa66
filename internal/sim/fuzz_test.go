package sim

import (
	"math"
	"slices"
	"sort"
	"testing"
	"time"
)

// maxFuzzScheduled bounds the events a program's loads may add to: past
// it op 4 schedules nothing.
const maxFuzzScheduled = 1 << 13

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

func (m *kernelModel) schedule(at Time, id int) { m.scheduleTicket(at, m.ticket(), id) }

// ticket takes the next seq, as Kernel.Ticket does.
func (m *kernelModel) ticket() uint64 {
	seq := m.nextSeq
	m.nextSeq++
	return seq
}

// scheduleTicket files an event in its (at, seq) place.
func (m *kernelModel) scheduleTicket(at Time, seq uint64, id int) {
	if at < m.now {
		at = m.now
	}
	i := sort.Search(len(m.pending), func(i int) bool {
		p := m.pending[i]
		return p.at > at || p.at == at && p.seq > seq
	})
	m.pending = slices.Insert(m.pending, i, modelEvent{at, seq, id})
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

// stockModel keeps, on the test's side, what sizes the kernel's stock of
// retired events: the events pending in each bucket, how many are live
// and their peak, and the most events the heap and wheel — every bucket
// below the kernel's nearEnd — have held at a retire. It halves the last
// two where the kernel's shrink does.
type stockModel struct {
	buckets              map[int64]int
	live, peak, nearPeak int
}

func (s *stockModel) schedule(at Time) {
	s.buckets[bucketOf(at)]++
	s.live++
	s.peak = max(s.peak, s.live)
}

// retire accounts for k firing its event at k.Now(), as k's callback
// sees it: the event is counted in the near tiers it just left.
func (s *stockModel) retire(k *Kernel) {
	s.nearPeak = max(s.nearPeak, s.live-s.far(k.nearEnd))
	b := bucketOf(k.Now())
	if s.buckets[b]--; s.buckets[b] == 0 {
		delete(s.buckets, b)
	}
	s.live--
	if s.live < s.peak/4 && s.peak >= shrinkMinCap {
		s.peak /= 2
		s.nearPeak /= 2
	}
}

// far counts the pending events in buckets from nearEnd on: the far tier.
func (s *stockModel) far(nearEnd int64) int {
	n := 0
	for b, c := range s.buckets {
		if b >= nearEnd {
			n += c
		}
	}
	return n
}

// spawns says whether the event with this id schedules a child when it
// fires; children (negative ids) never do, so every program terminates.
func spawns(id int) bool { return id > 0 && id%3 == 0 }

// childDelay is how far ahead a spawning event schedules its child: up
// to two seconds, so children land in the current bucket and in later
// ones.
func childDelay(id int) time.Duration { return time.Duration(id%5) * 500 * time.Millisecond }

// addSat is now+d clamped to [0, maxTime], the instant the kernel's
// Defer computes.
func addSat(now Time, d time.Duration) Time {
	if d >= 0 && Time(d) > maxTime-now {
		return maxTime
	}
	if now+Time(d) < 0 {
		return 0
	}
	return now + Time(d)
}

// FuzzKernel drives the kernel with a program of schedules (Defer and
// DeferAt, in the current slot, across slots and buckets, at their edges
// and a wheel turn ahead, tied, past and saturating), loads scheduled up
// front, Step, RunUntil, StepUntil, AdvanceTo, NextEventAt, arena
// attach/detach and tickets (Ticket, and DeferTicket under the oldest
// ticket held, in any later instant's place), and after every call
// compares the fire order, Now,
// Steps and Pending with the reference model's, and the kernel's far
// tier count, near-tier high-water mark and free list with the stock
// model's. Op 4, once a cancel, schedules a load of 256 to 2 048
// events spread over the next one to eight seconds while fewer than
// maxFuzzScheduled events have been scheduled, so a program stays fast.
// The seed corpus under testdata/fuzz/FuzzKernel replays the wheel's
// hazards on every plain test run: a slot poured by a peek (NextEventAt,
// StepUntil) before an event lands below it, and the wheel turning over
// from one bucket to the next; the last seed below runs a load to its
// sixth second, past the point where a stock sized by the far tier's
// load outgrows shrinkMinCap.
func FuzzKernel(f *testing.F) {
	f.Add([]byte{0, 1, 5, 1, 3, 4, 5, 0, 5, 5, 5})
	f.Add([]byte{1, 3, 2, 1, 3, 5, 4, 0, 6, 3, 9, 9, 0, 4, 2, 7, 3, 7, 5, 8, 2, 200, 5, 5})
	f.Add([]byte{0, 4, 1, 0, 4, 3, 0, 4, 0, 2, 7, 8, 4, 1, 6, 1, 50, 8, 3, 3, 5, 5, 5, 9, 6, 5, 0})
	f.Add([]byte{3, 6, 9, 0, 0, 1, 5, 3, 2, 3, 2, 1, 10, 0, 4, 1, 6, 5, 0, 7, 4, 0, 8, 3, 1, 6, 3, 9})
	// A ticket taken before a tie at the same instant fires first.
	f.Add([]byte{11, 0, 0, 7, 11, 1, 7, 5, 5})
	f.Add([]byte{4, 7, 7, 6, 3, 6, 0})
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
		stock := &stockModel{buckets: map[int64]int{}}
		var got []int
		var tickets []uint64 // taken and not yet used
		lastAt := Time(0)
		id := 0

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
				stock.retire(k)
				got = append(got, id)
				if spawns(id) {
					stock.schedule(addSat(k.Now(), childDelay(id)))
					k.Defer(childDelay(id), func() {
						stock.retire(k)
						got = append(got, -id)
					})
				}
			}
		}

		for step := 0; pos < len(prog); step++ {
			op := next() % 12
			switch op {
			case 0, 1, 2, 3:
				id++
				d := delay()
				at := addSat(k.Now(), d) // the model clamps a past instant to now
				lastAt = max(at, k.Now())
				if op < 2 {
					k.Defer(d, fn(id))
				} else {
					k.DeferAt(at, fn(id))
				}
				m.schedule(at, id)
				stock.schedule(lastAt)
			case 4:
				n, span := 256*(1+next()%8), time.Duration(1+next()%8)*time.Second
				if m.nextSeq >= maxFuzzScheduled {
					continue
				}
				for i := 0; i < n; i++ {
					id++
					at := addSat(k.Now(), span*time.Duration(i)/time.Duration(n))
					k.DeferAt(at, fn(id))
					m.schedule(at, id)
					stock.schedule(at)
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
			case 11:
				if next()%2 == 0 || len(tickets) == 0 {
					tk := k.Ticket()
					if w := m.ticket(); tk != w {
						t.Fatalf("step %d: Ticket = %d, model %d", step, tk, w)
					}
					tickets = append(tickets, tk)
				} else {
					id++
					tk := tickets[0]
					tickets = tickets[1:]
					at := addSat(k.Now(), delay())
					lastAt = max(at, k.Now())
					k.DeferTicket(at, tk, fn(id))
					m.scheduleTicket(at, tk, id)
					stock.schedule(lastAt)
				}
			}
			if !slices.Equal(got, m.fired) {
				t.Fatalf("step %d (op %d): fired %v, model %v", step, op, got, m.fired)
			}
			if k.Now() != m.now || k.Steps() != m.steps || k.Pending() != len(m.pending) {
				t.Fatalf("step %d (op %d): Now %v Steps %d Pending %d, model %v %d %d",
					step, op, k.Now(), k.Steps(), k.Pending(), m.now, m.steps, len(m.pending))
			}
			if far := stock.far(k.nearEnd); k.stashed != far || k.nearPeak != stock.nearPeak {
				t.Fatalf("step %d (op %d): stashed %d nearPeak %d, model %d %d", step, op, k.stashed, k.nearPeak, far, stock.nearPeak)
			}
			if limit := max(stock.nearPeak, shrinkMinCap); len(k.free) > limit {
				t.Fatalf("step %d (op %d): free list holds %d retired events, stock %d", step, op, len(k.free), limit)
			}
		}
	})
}
