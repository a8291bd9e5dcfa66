// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock, a three-tier event queue with stable tie-breaking
// and a seeded random source. Nothing scheduled is ever taken back: an
// event leaves the queue only by firing, and a caller that no longer
// wants one lets it fire as a no-op (a generation it checks, as the
// stations, hosts, wired ARQ and windowed radio do). Calls of one
// function after one constant delay wait in a Timeouts, behind one event
// that keeps each call's place in the event order (Ticket), and a call
// that can only do nothing any more is dropped there without an event.
//
// The kernel is single-threaded by design. All protocol actors run as
// event handlers; two runs with the same seed and the same schedule of
// calls produce byte-identical traces, which the scenario tests
// (Figures 3 and 4 of the paper) and the experiment sweeps rely on.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"time"
)

// Time is a virtual instant, expressed as the duration elapsed since the
// start of the simulation.
type Time time.Duration

// String renders the instant as a duration, e.g. "1.5s".
func (t Time) String() string { return time.Duration(t).String() }

// maxTime is the last representable instant; a delay that would pass it
// saturates there.
const maxTime = Time(math.MaxInt64)

// event is one scheduled callback. Events are recycled through the
// kernel's free list once fired, so the steady-state event rate causes
// no allocation.
type event struct {
	at   Time
	seq  uint64 // insertion order, or a ticket's (Ticket); breaks ties deterministically
	fn   func() // nil once retired
	next *event // the rest of its wheel slot or far bucket
}

// slotWidth is the wheel's granularity: the near bucket is cut into
// slots this wide, and the heap holds one slot's events at a time — about
// one at cell_mobility's shape, where a second holds about 3 000. It is
// 2^18 ns (about 262 µs); the widths measured against it are in DESIGN
// §10's rejected attempts.
//
// bucketWidth is the far tier's granularity: an event whose instant lies
// in a later bucket than the wheel's waits in that bucket's unsorted
// chain. 2^30 ns (about 1.07 s) keeps the wheel to one bucket while a
// run's future spans a few dozen buckets.
//
// Both are powers of two, so numbering a slot or a bucket is a shift, and
// constants, not settings. The wheel holds exactly one bucket: wheelSize
// slots, 32 KB of chain heads a kernel.
const (
	slotBits    = 18
	bucketBits  = 30
	slotWidth   = Time(1 << slotBits)
	bucketWidth = Time(1 << bucketBits)
	wheelSize   = 1 << (bucketBits - slotBits)
)

// bucketOf and slotOf number the bucket and the slot an instant falls in;
// instants are never negative, so both are shifts.
func bucketOf(at Time) int64 { return int64(uint64(at) / uint64(bucketWidth)) }
func slotOf(at Time) int64   { return int64(uint64(at) / uint64(slotWidth)) }

// bucket is the far tier's share of one bucketWidth of virtual time: its
// events in no particular order, chained through event.next.
type bucket struct {
	num   int64 // instant / bucketWidth
	first *event
}

// Kernel is the discrete-event scheduler. It is not safe for concurrent
// use; all interaction must happen from the goroutine driving Run (or
// from within event callbacks, which amounts to the same thing).
//
// Its queue has three tiers. The heap holds the events of slots up to
// cur; the wheel holds the rest of the near bucket (nearEnd-1), one
// unsorted chain per slot; the far tier holds every later event in its
// bucket. Every heap event is earlier than every wheel event, and every
// wheel event earlier than every far one, so popping the heap — pouring
// the next occupied slot into it once it runs dry, and the earliest far
// bucket into the wheel once that is empty too — fires events in exactly
// (at, seq) order, while the heap stays the size of one slot's traffic
// however much of the future is scheduled.
type Kernel struct {
	now      Time
	queue    []*event               // heap ordered by (at, seq): the slots up to cur
	cur      int64                  // last slot poured into the heap
	wheel    [wheelSize]*event      // the near bucket's later slots, by slot mod wheelSize
	occupied [wheelSize / 64]uint64 // bit i: wheel[i] holds a chain
	nearEnd  int64                  // first bucket of the far tier
	far      []bucket               // far tier: non-empty buckets in ascending order
	stashed  int                    // events in the far tier
	live     int                    // events scheduled and not yet retired, all tiers
	peak     int                    // most events live at once since the last shrink
	nearPeak int                    // most events in the heap and wheel at once since the last shrink
	free     []*event               // retired events awaiting reuse, at most stock()
	arena    *Arena                 // optional shared free list; see SetArena
	rng      *RNG
	nextSeq  uint64
	held     uint64 // the ticket the next schedule files under, plus one; 0 for none
	stopped  bool
	steps    uint64
}

// Arena is a free list of retired events shared between kernels. Without
// it every kernel keeps its own stock (see stock) of event structs; with
// an arena, kernels that execute on the same OS thread in turn — the
// parallel engine's regions, dealt to one worker — recycle a single pool
// sized to the worker's peak, not the sum of per-kernel stocks. It
// is trimmed when whichever kernel has it attached drains a burst (see
// shrink).
//
// An Arena is not safe for concurrent use: at most one kernel may have
// it attached at a time, and the attach/detach calls must be serialized
// with that kernel's stepping (the parallel engine attaches it around
// each region's window step, on the worker goroutine).
type Arena struct {
	free []*event
}

// NewArena returns an empty shared free list.
func NewArena() *Arena { return &Arena{} }

// SetArena routes the kernel's event recycling through a: retired events
// are returned to the arena, and new events draw from it before falling
// back to the kernel's own free list (which drains first and then stays
// empty while attached). Passing nil reverts to the private free list.
// Events already queued are unaffected — an arena can be attached and
// detached freely between steps. Recycling order is not observable:
// events carry no identity beyond the seq the kernel assigns fresh on
// every schedule, so runs with and without an arena are byte-identical.
func (k *Kernel) SetArena(a *Arena) { k.arena = a }

// NewKernel returns a kernel whose random source is seeded with seed.
// Equal seeds yield identical simulations.
func NewKernel(seed int64) *Kernel {
	k := &Kernel{rng: NewRNG(seed), nearEnd: 1}
	k.rng.k = k
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// RNG returns the kernel's deterministic random source.
func (k *Kernel) RNG() *RNG { return k.rng }

// Steps returns the number of events executed so far.
func (k *Kernel) Steps() uint64 { return k.steps }

// Pending returns the number of events still scheduled, in all three
// tiers: every one of them will fire.
func (k *Kernel) Pending() int { return k.live }

// later is the instant delay after now, clamped to [now, maxTime]: a
// huge delay must not wrap into the past and fire at once.
func later(now Time, delay time.Duration) Time {
	if delay < 0 {
		return now
	}
	if Time(delay) > maxTime-now {
		return maxTime
	}
	return now + Time(delay)
}

// Ticket takes the next place in the event order without scheduling
// anything: an event scheduled under it later (DeferTicket) fires where
// an event scheduled now for the same instant would have — after the
// events already scheduled for that instant, before those scheduled
// after the ticket was taken. A ticket is used at most once.
func (k *Kernel) Ticket() uint64 {
	t := k.nextSeq
	k.nextSeq++
	return t
}

// DeferTicket schedules fn at the absolute instant at, in the place
// ticket holds (see Ticket). Instants in the past are clamped to now.
func (k *Kernel) DeferTicket(at Time, ticket uint64, fn func()) {
	k.hold(ticket)
	k.schedule(at, fn)
}

// hold makes ticket the place of the next event scheduled, by whatever
// call reaches schedule — also a Defer passed on by a scheduler that
// wraps the kernel (Timeouts.arm).
func (k *Kernel) hold(ticket uint64) { k.held = ticket + 1 }

// Defer schedules fn to run after delay of virtual time. A negative
// delay is treated as zero (fn runs at the current instant, after any
// events already scheduled for it); one reaching past the last
// representable instant schedules fn there. The steady-state cost is
// zero allocations: the event comes from the free list.
func (k *Kernel) Defer(delay time.Duration, fn func()) {
	k.schedule(later(k.now, delay), fn)
}

// schedule allocates (or recycles) an event and files it in its tier. The
// far test comes first, so a far event — most of a load scheduled up
// front — pays for no slot number; only a near one computes its slot.
func (k *Kernel) schedule(at Time, fn func()) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	if at < k.now {
		at = k.now
	}
	var e *event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else if k.arena != nil {
		if n := len(k.arena.free); n > 0 {
			e = k.arena.free[n-1]
			k.arena.free[n-1] = nil
			k.arena.free = k.arena.free[:n-1]
		}
	}
	if e == nil {
		e = new(event)
	}
	e.at, e.fn = at, fn
	if k.held != 0 {
		e.seq, k.held = k.held-1, 0
	} else {
		e.seq = k.nextSeq
		k.nextSeq++
	}
	if k.live++; k.live > k.peak {
		k.peak = k.live
	}
	if b := bucketOf(at); b >= k.nearEnd {
		k.stash(b, e)
	} else if s := slotOf(at); s > k.cur {
		k.file(s, e)
	} else {
		// The current slot, or one below it: an event injected after a
		// peek poured a later slot (NextEventAt, StepUntil) must not be
		// filed in the wheel, at an index the scan has passed.
		k.push(e)
	}
}

// stash files e in the far tier's bucket b, which it creates if needed.
// The pending buckets are usually all non-empty, so b's index is usually
// its distance from the first bucket; otherwise a binary search finds
// it. Creating a bucket shifts the later ones, so it costs at most the
// number of distinct buckets pending.
func (k *Kernel) stash(b int64, e *event) {
	i := -1
	if len(k.far) > 0 {
		if d := b - k.far[0].num; d >= 0 && d < int64(len(k.far)) && k.far[d].num == b {
			i = int(d)
		}
	}
	if i < 0 {
		var found bool
		i, found = slices.BinarySearchFunc(k.far, b, func(x bucket, b int64) int { return cmp.Compare(x.num, b) })
		if !found {
			k.far = slices.Insert(k.far, i, bucket{num: b})
		}
	}
	e.next = k.far[i].first
	k.far[i].first = e
	k.stashed++
}

// file pushes e onto the chain of wheel slot s, which lies after cur in
// the near bucket.
func (k *Kernel) file(s int64, e *event) {
	i := uint64(s) % wheelSize
	e.next = k.wheel[i]
	k.wheel[i] = e
	k.occupied[i/64] |= 1 << (i % 64)
}

// refill fills the heap, which has run dry: with the wheel's next
// occupied slot or, once the wheel is empty too, from the earliest far
// bucket, which it first spreads over the wheel as the new near bucket.
// It reports false when all three tiers are empty.
func (k *Kernel) refill() bool {
	if k.pour() {
		return true
	}
	if len(k.far) == 0 {
		return false
	}
	b := k.far[0]
	k.far = slices.Delete(k.far, 0, 1)
	k.nearEnd = b.num + 1
	k.cur = b.num*wheelSize - 1
	for e := b.first; e != nil; {
		next := e.next
		k.file(slotOf(e.at), e)
		k.stashed--
		e = next
	}
	return k.pour()
}

// pour moves the wheel's first occupied slot after cur into the heap and
// makes it cur. The wheel is one bucket and cur lies in it or just
// before it, so the scan runs from cur's successor to the wheel's end. It
// reports false when the wheel is empty.
func (k *Kernel) pour() bool {
	i := uint64(k.cur+1) % wheelSize
	w := i / 64
	word := k.occupied[w] &^ (1<<(i%64) - 1)
	for word == 0 {
		if w++; w == uint64(len(k.occupied)) {
			return false
		}
		word = k.occupied[w]
	}
	i = w*64 + uint64(bits.TrailingZeros64(word))
	k.occupied[w] &^= 1 << (i % 64)
	k.cur = (k.nearEnd-1)*wheelSize + int64(i)
	e := k.wheel[i]
	k.wheel[i] = nil
	for e != nil {
		next := e.next
		e.next = nil
		k.push(e)
		e = next
	}
	return true
}

// retire returns a popped event to the free list (the shared arena when
// one is attached), dropping its callback so a retired event pins no
// closure. The private list keeps the event only while it holds fewer
// than stock(); past that the event is left to the collector, so the
// trim allocates nothing. The near tiers' count, the popped event
// included, goes into nearPeak first: the tiers only grow between
// retires, so that is their high-water mark.
func (k *Kernel) retire(e *event) {
	e.fn = nil
	k.nearPeak = max(k.nearPeak, k.live-k.stashed)
	k.live--
	if k.live < k.peak/4 && k.peak >= shrinkMinCap {
		k.shrink()
	}
	if k.arena != nil {
		k.arena.free = append(k.arena.free, e)
		return
	}
	if len(k.free) < k.stock() {
		k.free = append(k.free, e)
	}
}

// stock is how many retired events the private free list keeps: the
// most events the heap and wheel have held at once since the last
// shrink, never fewer than shrinkMinCap. Those are the events in flight
// together, a far bucket spread over the wheel counting in full, so a
// list that size serves the next such crowd without allocating; the far
// tier's pre-scheduled load sizes nothing.
func (k *Kernel) stock() int { return max(k.nearPeak, shrinkMinCap) }

// eventLess orders events by (at, seq).
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push appends an event and restores the heap invariant. The sift loops
// are inlined (vs container/heap) so scheduling costs no interface
// conversions or indirect Less/Swap calls.
func (k *Kernel) push(e *event) {
	k.queue = append(k.queue, e)
	q := k.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(e, q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
}

// pop removes and returns the heap's minimum event; the heap must not be
// empty.
func (k *Kernel) pop() *event {
	q := k.queue
	top := q[0]
	n := len(q) - 1
	e := q[n]
	q[n] = nil
	k.queue = q[:n]
	if n > 0 {
		q = k.queue
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && eventLess(q[r], q[c]) {
				c = r
			}
			if !eventLess(q[c], e) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = e
	}
	return top
}

// shrinkMinCap is the burst size below which the kernel never shrinks:
// small steady-state loads keep their heap array and free lists so the
// common case stays allocation-free. Only a genuine burst (thousands of
// concurrent events) trips the release path.
const shrinkMinCap = 1024

// shrink lets a drained burst go once the events scheduled in all tiers
// fall below a quarter of their peak: it halves the peak and the near
// tiers' high-water mark, drops the free list's events past the stock
// that leaves, halves the heap's backing array if that is larger, and
// caps an attached arena at the peak — without it all of them stay
// pinned at the burst's high-water mark for the rest of the run. It keys
// on live, not on the heap's capacity, because the heap holds one slot
// and never grows with a burst spread over many, and because a
// pre-scheduled load draining through the heap refill by refill has not
// drained. The arena is capped at this kernel's halved peak, never at
// its live count: the kernels sharing it draw on it in turn. Halving per
// shrink keeps the cost amortized O(1) per retire.
func (k *Kernel) shrink() {
	k.peak /= 2
	k.nearPeak /= 2
	k.free = trimmed(k.free, k.stock())
	if c := cap(k.queue); c > k.peak {
		nq := make([]*event, len(k.queue), c/2)
		copy(nq, k.queue)
		k.queue = nq
	}
	if k.arena != nil {
		k.arena.free = trimmed(k.arena.free, k.peak)
	}
}

// Step executes the next pending event. It reports whether an event was
// executed (false means the queue is empty or the kernel was stopped).
func (k *Kernel) Step() bool {
	if k.stopped || len(k.queue) == 0 && !k.refill() {
		return false
	}
	e := k.pop()
	k.now = e.at
	k.steps++
	fn := e.fn
	k.retire(e)
	fn()
	return true
}

// Run executes events until the queue drains or Stop is called.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances
// the clock to deadline. Events scheduled beyond deadline stay queued.
func (k *Kernel) RunUntil(deadline Time) {
	for !k.stopped {
		next := k.peek()
		if next == nil || next.at > deadline {
			break
		}
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
}

// StepUntil executes every event with timestamp strictly below limit and
// reports how many ran. Unlike RunUntil it does not advance the clock to
// limit afterwards: the clock stays at the last executed event, so a
// caller can keep injecting events anywhere in [now, limit) between
// windows. It is the kernel barrier primitive of the conservative
// parallel engine (internal/psim): each region steps its kernel through
// the window [T, T+lookahead) and then synchronizes.
func (k *Kernel) StepUntil(limit Time) uint64 {
	var ran uint64
	for !k.stopped {
		next := k.peek()
		if next == nil || next.at >= limit {
			break
		}
		k.Step()
		ran++
	}
	return ran
}

// NextEventAt returns the timestamp of the earliest pending event; ok is
// false when nothing is scheduled.
func (k *Kernel) NextEventAt() (at Time, ok bool) {
	e := k.peek()
	if e == nil {
		return 0, false
	}
	return e.at, true
}

// DeferAt schedules fn at the absolute instant at — Defer's absolute
// form, used to inject cross-region frames at their precomputed arrival
// instants. Instants in the past are clamped to now.
func (k *Kernel) DeferAt(at Time, fn func()) { k.schedule(at, fn) }

// AdvanceTo moves the clock forward to t without executing anything. It
// panics if a pending event precedes t — virtual time must not skip an
// unprocessed event. Used by window runners to align region clocks at
// the end of a run (the serial RunUntil's final clock advance, factored
// out).
func (k *Kernel) AdvanceTo(t Time) {
	if t <= k.now {
		return
	}
	if e := k.peek(); e != nil && e.at < t {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) would skip event at %v", t, e.at))
	}
	k.now = t
}

// RunLimit executes at most n events; it reports how many ran. It guards
// experiment loops against livelock bugs.
func (k *Kernel) RunLimit(n uint64) uint64 {
	var ran uint64
	for ran < n && k.Step() {
		ran++
	}
	return ran
}

// Stop halts Run after the current event. Further Step calls return
// false until Resume.
func (k *Kernel) Stop() { k.stopped = true }

// Resume clears a Stop.
func (k *Kernel) Resume() { k.stopped = false }

// peek returns the earliest event without popping it.
func (k *Kernel) peek() *event {
	if len(k.queue) == 0 && !k.refill() {
		return nil
	}
	return k.queue[0]
}

// RNG is a deterministic random source with the distributions the
// workload models need. It wraps math/rand so all draws flow through a
// single stream, keeping runs reproducible.
type RNG struct {
	r *rand.Rand
	// k is the kernel whose source this is (Kernel.RNG), nil for any
	// other. Every scheduler, a wrapper of the kernel too, hands out its
	// kernel's source, so this is how a Timeouts finds the event order
	// behind the scheduler it is given (kernelOf).
	k *Kernel
}

// NewRNG returns a source seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Intn returns a uniform int in [0, n). n must be > 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative uniform int64.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Float64 returns a uniform float64 in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Prob reports true with probability p (clamped to [0, 1]).
func (g *RNG) Prob(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// Uniform returns a duration uniformly distributed in [lo, hi]. If
// hi <= lo it returns lo.
func (g *RNG) Uniform(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(g.r.Int63n(int64(hi-lo)+1))
}

// Exp returns an exponentially distributed duration with the given mean.
// A non-positive mean returns 0.
func (g *RNG) Exp(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	d := time.Duration(g.r.ExpFloat64() * float64(mean))
	// Guard against pathological draws overflowing downstream arithmetic.
	const cap = time.Duration(math.MaxInt64 / 4)
	if d > cap {
		d = cap
	}
	return d
}

// Perm returns a deterministic random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Fork returns an independent source derived from this one. Forked
// sources let subsystems draw without perturbing each other's streams
// while remaining reproducible.
func (g *RNG) Fork() *RNG { return NewRNG(g.r.Int63()) }

// Ensure Time formats sensibly even at extreme values (documentation of
// intent; exercised in tests).
var _ = fmt.Stringer(Time(0))
