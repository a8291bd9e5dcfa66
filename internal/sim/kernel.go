// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock, a two-tier event queue with stable tie-breaking,
// cancellable timers and a seeded random source.
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
// kernel's free list once fired or cancel-popped, so the steady-state
// event rate causes no allocation; seq doubles as a generation counter
// that keeps stale Timer handles from cancelling a recycled event.
type event struct {
	at   Time
	seq  uint64 // insertion order; breaks ties deterministically
	fn   func() // nil once cancelled or retired
	next *event // the rest of its far-tier bucket
}

// bucketWidth is the far tier's granularity: an event whose instant lies
// in a later bucket than the near tier's waits in that bucket's unsorted
// chain instead of the heap. One second keeps the heap to the current
// second's events (about 3 000 on cell_mobility, where 140 000 are
// scheduled up front) while a run's future spans a few dozen buckets;
// DESIGN §10 has the measurements behind the choice. It is a constant,
// not a setting.
const bucketWidth = Time(time.Second)

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
// Its queue has two tiers. The near tier is a binary heap of the events
// in buckets below nearEnd; the far tier holds every later event in its
// bucket. Every near event is earlier than every far one, so popping the
// heap — and pouring the earliest bucket into it once it runs dry —
// fires events in exactly (at, seq) order, while the heap stays the size
// of one second's traffic however much of the future is scheduled.
type Kernel struct {
	now     Time
	queue   []*event // near tier: binary heap ordered by (at, seq)
	nearEnd int64    // first bucket of the far tier
	far     []bucket // far tier: non-empty buckets in ascending order
	live    int      // events scheduled and not yet retired, both tiers
	free    []*event // retired events awaiting reuse
	arena   *Arena   // optional shared free list; see SetArena
	rng     *RNG
	nextSeq uint64
	stopped bool
	steps   uint64
}

// Arena is a free list of retired events shared between kernels. Without
// it every kernel pins its own burst high-water mark of event structs;
// with an arena, kernels that execute on the same OS thread in turn —
// the parallel engine's regions, dealt to one worker — recycle a single
// pool sized to the worker's peak, not the sum of per-kernel peaks. It
// is trimmed when the heap of whichever kernel has it attached shrinks
// (see maybeShrink).
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
	return &Kernel{rng: NewRNG(seed), nearEnd: 1}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// RNG returns the kernel's deterministic random source.
func (k *Kernel) RNG() *RNG { return k.rng }

// Steps returns the number of events executed so far.
func (k *Kernel) Steps() uint64 { return k.steps }

// Pending returns the number of events still scheduled, in both tiers.
func (k *Kernel) Pending() int {
	n := 0
	for _, e := range k.queue {
		if e.fn != nil {
			n++
		}
	}
	for _, b := range k.far {
		for e := b.first; e != nil; e = e.next {
			if e.fn != nil {
				n++
			}
		}
	}
	return n
}

// Timer is a handle to a scheduled event. It remembers the event's
// generation (seq): once the event has fired or been cancelled the
// kernel recycles it, and a stale handle observing a different seq
// knows its event is gone.
type Timer struct {
	e   *event
	seq uint64
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled timer is a no-op. It reports whether the event was
// still pending.
func (t *Timer) Cancel() bool {
	if t == nil || t.e == nil || t.e.seq != t.seq || t.e.fn == nil {
		return false
	}
	t.e.fn = nil
	return true
}

// After schedules fn to run after delay of virtual time. A negative
// delay is treated as zero (fn runs at the current instant, after any
// events already scheduled for it); one reaching past the last
// representable instant schedules fn there.
func (k *Kernel) After(delay time.Duration, fn func()) Canceler {
	return k.At(k.later(delay), fn)
}

// later is the instant delay after now, clamped to [now, maxTime]: a
// huge delay must not wrap into the past and fire at once.
func (k *Kernel) later(delay time.Duration) Time {
	if delay < 0 {
		return k.now
	}
	if Time(delay) > maxTime-k.now {
		return maxTime
	}
	return k.now + Time(delay)
}

// At schedules fn for the given absolute virtual instant. Instants in
// the past are clamped to now.
func (k *Kernel) At(at Time, fn func()) Canceler {
	e := k.schedule(at, fn)
	return &Timer{e: e, seq: e.seq}
}

// Defer schedules fn like After but returns no cancellation handle, so
// the steady-state cost is zero allocations (the event comes from the
// free list). It is the right call for the fire-and-forget schedules
// that dominate the hot path — message deliveries, processing steps.
func (k *Kernel) Defer(delay time.Duration, fn func()) {
	k.schedule(k.later(delay), fn)
}

// schedule allocates (or recycles) an event and files it in its tier.
func (k *Kernel) schedule(at Time, fn func()) *event {
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
	e.at, e.seq, e.fn = at, k.nextSeq, fn
	k.nextSeq++
	k.live++
	if b := int64(at / bucketWidth); b < k.nearEnd {
		k.push(e)
	} else {
		k.stash(b, e)
	}
	return e
}

// stash files e in the far tier's bucket b, which it creates if needed.
// The pending seconds are usually all non-empty, so b's index is usually
// its distance from the first bucket; otherwise a binary search finds
// it. Creating a bucket shifts the later ones, so it costs at most the
// number of distinct seconds pending.
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
}

// refill pours the earliest far bucket into the heap, which has run dry,
// and moves the near tier's end past it. It reports false when the far
// tier is empty too.
func (k *Kernel) refill() bool {
	if len(k.far) == 0 {
		return false
	}
	b := k.far[0]
	k.far = slices.Delete(k.far, 0, 1)
	k.nearEnd = b.num + 1
	for e := b.first; e != nil; {
		next := e.next
		e.next = nil
		k.push(e)
		e = next
	}
	return true
}

// retire returns a popped event to the free list (the shared arena when
// one is attached). fn stays nil so a stale Timer holding the event sees
// it as spent until reuse bumps its seq. The private list sheds retired
// events by FreeList's rule, with the events still scheduled in either
// tier as the ones out: a pre-scheduled load keeps it intact, and only a
// drained burst lets it go.
func (k *Kernel) retire(e *event) {
	e.fn = nil
	k.live--
	if k.arena != nil {
		k.arena.free = append(k.arena.free, e)
		return
	}
	k.free = shed(append(k.free, e), k.live)
}

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
	k.maybeShrink()
	return top
}

// shrinkMinCap is the queue capacity below which the heap never shrinks:
// small steady-state queues keep their backing array so the common case
// stays allocation-free. Only a genuine burst (thousands of concurrent
// events) trips the release path.
const shrinkMinCap = 1024

// maybeShrink releases most of a burst's heap once the events scheduled
// in both tiers fall below a quarter of its capacity: without it the
// backing array stays pinned at the high-water mark for the rest of the
// run. Counting the far tier keeps one second's refill from shrinking the
// heap the next second regrows. Halving per shrink keeps the cost
// amortized O(1) per pop.
func (k *Kernel) maybeShrink() {
	c := cap(k.queue)
	if c < shrinkMinCap || k.live >= c/4 {
		return
	}
	nc := c / 2
	nq := make([]*event, len(k.queue), nc)
	copy(nq, k.queue)
	k.queue = nq
	// An attached arena grew with the burst too; cap it at the shrunk
	// heap's capacity so the retired events can be collected.
	if k.arena != nil {
		k.arena.free = trimmed(k.arena.free, nc)
	}
}

// Step executes the next pending event. It reports whether an event was
// executed (false means the queue is empty or the kernel was stopped).
func (k *Kernel) Step() bool {
	if k.stopped {
		return false
	}
	for len(k.queue) > 0 || k.refill() {
		e := k.pop()
		if e.fn == nil {
			k.retire(e)
			continue
		}
		k.now = e.at
		k.steps++
		fn := e.fn
		k.retire(e)
		fn()
		return true
	}
	return false
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

// DeferAt schedules fn at the absolute instant at with no cancellation
// handle — the zero-allocation analogue of At, used to inject
// cross-region frames at their precomputed arrival instants. Instants in
// the past are clamped to now.
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

// peek returns the earliest non-cancelled event without popping it.
func (k *Kernel) peek() *event {
	for len(k.queue) > 0 || k.refill() {
		if e := k.queue[0]; e.fn != nil {
			return e
		}
		k.retire(k.pop())
	}
	return nil
}

// RNG is a deterministic random source with the distributions the
// workload models need. It wraps math/rand so all draws flow through a
// single stream, keeping runs reproducible.
type RNG struct {
	r *rand.Rand
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
