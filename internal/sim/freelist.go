package sim

import "time"

// FreeList recycles the in-flight records of one substrate instance (a
// wired or radio frame, a server job, a station's hop to itself): Get
// hands out a retired record, Put takes one back once it has fired. Like
// the kernel it serves it is single-threaded — one list per substrate,
// never shared between regions or goroutines.
//
// It trims by shed's rule, the one the kernel's own event list follows:
// once fewer than a quarter of the records it tracks — out plus free —
// are out, half of them are dropped. A burst's high-water mark is not
// pinned for the rest of the run, and a steady load never trims.
type FreeList[T any] struct {
	free []*T
	out  int // records handed out and not yet returned
}

// Get returns a retired record, or nil when the caller must allocate one.
// Either way the record counts as out until it is Put back.
func (l *FreeList[T]) Get() *T {
	l.out++
	n := len(l.free)
	if n == 0 {
		return nil
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

// Put retires a record obtained through Get. The caller clears what the
// record references first; nothing may touch it afterwards.
func (l *FreeList[T]) Put(x *T) {
	l.out--
	l.free = shed(append(l.free, x), l.out)
}

// Out returns how many records are handed out and not yet returned: zero
// once everything a substrate scheduled has fired, or a record leaked.
func (l *FreeList[T]) Out() int { return l.out }

// shed applies the trimming rule to a free list with out records handed
// out: once they are fewer than a quarter of all records tracked (and
// those number at least shrinkMinCap), half of the tracked are dropped.
func shed[T any](free []*T, out int) []*T {
	if total := out + len(free); total >= shrinkMinCap && out < total/4 {
		return trimmed(free, len(free)-total/2)
	}
	return free
}

// trimmed returns the first n entries of free in a right-sized backing
// array, so the dropped records and the old array can both be collected.
func trimmed[T any](free []*T, n int) []*T {
	if len(free) <= n {
		return free
	}
	nf := make([]*T, n)
	copy(nf, free)
	return nf
}

// Calls defers calls of one function, each with its own argument, on a
// scheduler — what `Defer(delay, func() { fn(arg) })` does with a closure
// per call, done with a recycled record instead (the server's processing
// jobs, a station's messages to itself). The record is retired before fn
// runs, so fn may defer further calls and be handed the same record.
type Calls[T any] struct {
	k    Scheduler
	fn   func(T)
	free FreeList[call[T]]
}

// call is one deferred call. run is its fire method, bound once when the
// record is first allocated; that binding is the only closure.
type call[T any] struct {
	c   *Calls[T]
	arg T
	run func()
}

// NewCalls returns a deferrer of fn on k.
func NewCalls[T any](k Scheduler, fn func(T)) *Calls[T] {
	return &Calls[T]{k: k, fn: fn}
}

// Defer schedules fn(arg) after delay.
func (c *Calls[T]) Defer(delay time.Duration, arg T) {
	r := c.free.Get()
	if r == nil {
		r = &call[T]{c: c}
		r.run = r.fire
	}
	r.arg = arg
	c.k.Defer(delay, r.run)
}

// DeferAt schedules fn(arg) at the absolute instant at; an instant in the
// past runs now, as with Kernel.DeferAt.
func (c *Calls[T]) DeferAt(at Time, arg T) {
	c.Defer(time.Duration(at-c.k.Now()), arg)
}

// Out returns how many calls are scheduled and have not fired yet.
func (c *Calls[T]) Out() int { return c.free.Out() }

func (r *call[T]) fire() {
	c, arg := r.c, r.arg
	var zero T
	r.arg = zero
	c.free.Put(r)
	c.fn(arg)
}
