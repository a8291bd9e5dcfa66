package sim

import "time"

// Timeouts runs calls of one function after one constant delay: a host's
// request retries, a wired link's retransmissions at one backoff step.
// Because the delay is constant, the calls fall due in the order they
// were added, so they wait in a FIFO and only the head has a kernel
// event. Each call takes its place in the event order when it is added
// (Kernel.Ticket), and the head's event is scheduled under that ticket,
// so every call fires at the instant and in the place its own event would
// have held, among same-instant events too.
//
// dead says that a call would do nothing at its due, and that this is
// final: once dead(arg) holds it holds ever after. A call found dead when
// it reaches the head is dropped without an event; dead may release what
// the call holds. A call already armed fires whatever dead says, so fn
// keeps its own checks.
//
// On a scheduler without an event order (livenet's wall clock) the head
// is deferred by what is left of its delay. Like the kernel, a Timeouts is
// single-threaded; its FIFO is a chain of fixed-size blocks, with a few
// spare ones kept, so a warm one allocates nothing.
type Timeouts[T any] struct {
	s     Scheduler
	k     *Kernel // the kernel behind s, nil when s has none
	delay time.Duration
	fn    func(T)
	dead  func(T) bool
	wake  func() // fire, bound once

	head, tail *timeoutBlock[T]
	first, end int // the head's index in head, the first free index in tail
	n          int // calls waiting, the armed head included
	armed      bool
	blocks     int              // blocks in the chain
	spare      *timeoutBlock[T] // retired blocks, chained through next
	spares     int
}

// timeoutBlockLen is the number of calls a block holds.
const timeoutBlockLen = 64

type timeoutBlock[T any] struct {
	calls [timeoutBlockLen]timeoutCall[T]
	next  *timeoutBlock[T]
}

// timeoutCall is one waiting call: its due and its place in the event
// order.
type timeoutCall[T any] struct {
	at     Time
	ticket uint64
	arg    T
}

// NewTimeouts returns a runner of fn, delay after each Add, on s; dead is
// the final no-op test described on Timeouts.
func NewTimeouts[T any](s Scheduler, delay time.Duration, fn func(T), dead func(T) bool) *Timeouts[T] {
	t := &Timeouts[T]{s: s, k: kernelOf(s), delay: delay, fn: fn, dead: dead}
	t.wake = t.fire
	return t
}

// kernelOf returns the kernel behind s: s itself, or the kernel whose
// random source a wrapping scheduler hands out; nil on any other.
func kernelOf(s Scheduler) *Kernel {
	if k, ok := s.(*Kernel); ok {
		return k
	}
	return s.RNG().k
}

// Add schedules fn(arg) after the delay.
func (t *Timeouts[T]) Add(arg T) {
	c := timeoutCall[T]{at: later(t.s.Now(), t.delay), arg: arg}
	if t.k != nil {
		c.ticket = t.k.Ticket()
	}
	t.push(c)
	if t.n == 1 {
		t.arm()
	}
}

// Len returns how many calls are waiting, the armed head included.
func (t *Timeouts[T]) Len() int { return t.n }

// arm schedules the head's event: under the head's ticket, through s, so
// a scheduler wrapping the kernel sees the call as any other Defer.
func (t *Timeouts[T]) arm() {
	c := &t.head.calls[t.first]
	if t.k != nil {
		t.k.hold(c.ticket)
	}
	t.s.Defer(time.Duration(c.at-t.s.Now()), t.wake)
	if t.k != nil && t.k.held != 0 {
		panic("sim: a scheduler did not pass a Timeouts' call on to its kernel")
	}
	t.armed = true
}

// fire runs the head's call; then, unless the call added the next head
// itself, it drops the dead calls now at the head and arms the first
// live one.
func (t *Timeouts[T]) fire() {
	t.armed = false
	t.fn(t.pop())
	for !t.armed && t.n > 0 {
		if !t.dead(t.head.calls[t.first].arg) {
			t.arm()
			return
		}
		t.pop()
	}
}

// push appends c, chaining a block when the tail's is full.
func (t *Timeouts[T]) push(c timeoutCall[T]) {
	switch {
	case t.tail == nil:
		t.tail = t.block()
		t.head = t.tail
	case t.end == timeoutBlockLen:
		b := t.block()
		t.tail.next = b
		t.tail, t.end = b, 0
	}
	t.tail.calls[t.end] = c
	t.end++
	t.n++
}

// pop removes the head's call and returns its argument.
func (t *Timeouts[T]) pop() T {
	b := t.head
	arg := b.calls[t.first].arg
	b.calls[t.first] = timeoutCall[T]{}
	t.first++
	t.n--
	switch {
	case t.n == 0:
		t.first, t.end = 0, 0
	case t.first == timeoutBlockLen:
		t.head, t.first = b.next, 0
		t.retire(b)
	}
	return arg
}

// block returns an empty block: a spare one, or a new one.
func (t *Timeouts[T]) block() *timeoutBlock[T] {
	t.blocks++
	b := t.spare
	if b == nil {
		return new(timeoutBlock[T])
	}
	t.spare, b.next = b.next, nil
	t.spares--
	return b
}

// retire keeps a drained block as a spare while the spares number no
// more than the blocks in the chain (and one): a queue that swings back
// refills without allocating, and a burst's blocks go as it drains.
func (t *Timeouts[T]) retire(b *timeoutBlock[T]) {
	t.blocks--
	b.next, t.spare = t.spare, b
	t.spares++
	for t.spares > max(t.blocks, 1) {
		t.spare = t.spare.next
		t.spares--
	}
}
