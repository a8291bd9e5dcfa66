// Package livenet provides a wall-clock sim.Scheduler backed by real
// goroutines: timers fire on real time and all callbacks are serialized
// on one dispatcher goroutine, preserving the single-threaded execution
// model the protocol state machines assume.
//
// The paper's authors prototyped RDP as communicating Linux processes;
// this runtime is the equivalent demonstration that the protocol code
// in this repository is a real concurrent implementation and not only a
// simulation artifact — the same rdpcore state machines run unchanged on
// either scheduler. The deterministic kernel remains the substrate for
// every experiment.
package livenet

import (
	"container/heap"
	"sync"
	"time"

	"repro/internal/sim"
)

// Runtime is a live scheduler. Create with New, start with Start, and
// interact from other goroutines only through Do/Post. Stop waits for
// the dispatcher to drain.
//
// Timers run through the runtime's own deadline heap rather than
// individual time.AfterFunc timers: Go runtime timers with near-equal
// deadlines may fire in either order, but protocol code depends on two
// messages sent back-to-back with equal link latency arriving in send
// order (e.g. a join before the request that follows it). The heap
// orders callbacks by (deadline, insertion), exactly like the
// simulation kernel.
type Runtime struct {
	start time.Time
	rng   *sim.RNG

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []func()
	stopped bool
	done    chan struct{}
	started bool

	tmu        sync.Mutex
	timers     timerHeap
	nextSeq    uint64
	timerWake  chan struct{}
	timerDone  chan struct{}
	timerQuit  chan struct{}
	timerAlive bool
}

// New returns a runtime seeded with seed. The clock starts at New.
func New(seed int64) *Runtime {
	r := &Runtime{
		start:     time.Now(),
		rng:       sim.NewRNG(seed),
		done:      make(chan struct{}),
		timerWake: make(chan struct{}, 1),
		timerDone: make(chan struct{}),
		timerQuit: make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// liveEvent is one scheduled callback.
type liveEvent struct {
	at  time.Time
	seq uint64
	fn  func()
}

// timerHeap orders events by (deadline, insertion sequence).
type timerHeap []*liveEvent

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}

func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *timerHeap) Push(x any) { *h = append(*h, x.(*liveEvent)) }

func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Now implements sim.Scheduler: wall-clock time since New.
func (r *Runtime) Now() sim.Time { return sim.Time(time.Since(r.start)) }

// RNG implements sim.Scheduler. The source is not locked; access it only
// from scheduler callbacks (or before Start), like all protocol state.
func (r *Runtime) RNG() *sim.RNG { return r.rng }

// Defer implements sim.Scheduler: fn is posted to the dispatcher when
// the real-time delay elapses. Callbacks with equal deadlines run in
// scheduling order.
func (r *Runtime) Defer(delay time.Duration, fn func()) {
	if fn == nil {
		panic("livenet: nil callback")
	}
	if delay < 0 {
		delay = 0
	}
	e := &liveEvent{at: time.Now().Add(delay), fn: fn}
	r.tmu.Lock()
	e.seq = r.nextSeq
	r.nextSeq++
	heap.Push(&r.timers, e)
	r.tmu.Unlock()
	select {
	case r.timerWake <- struct{}{}:
	default:
	}
}

// timerLoop pops due events in (deadline, seq) order and posts them to
// the dispatcher.
func (r *Runtime) timerLoop() {
	defer close(r.timerDone)
	t := time.NewTimer(time.Hour)
	defer t.Stop()
	for {
		r.tmu.Lock()
		var wait time.Duration = time.Hour
		var due []*liveEvent
		now := time.Now()
		for len(r.timers) > 0 {
			e := r.timers[0]
			if e.at.After(now) {
				wait = e.at.Sub(now)
				break
			}
			heap.Pop(&r.timers)
			due = append(due, e)
		}
		r.tmu.Unlock()
		for _, e := range due {
			r.Post(e.fn)
		}
		if !t.Stop() {
			select {
			case <-t.C:
			default:
			}
		}
		t.Reset(wait)
		select {
		case <-t.C:
		case <-r.timerWake:
		case <-r.timerQuit:
			return
		}
	}
}

// Post enqueues fn for serialized execution. Safe from any goroutine.
// Posts after Stop are dropped.
func (r *Runtime) Post(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return
	}
	r.queue = append(r.queue, fn)
	r.cond.Signal()
}

// Do runs fn on the dispatcher and waits for it to finish — the way
// external goroutines (driver code, tests) interact with protocol state.
// Calling Do from inside a callback would deadlock; callbacks already
// run on the dispatcher and can act directly.
func (r *Runtime) Do(fn func()) {
	doneCh := make(chan struct{})
	r.Post(func() {
		defer close(doneCh)
		fn()
	})
	select {
	case <-doneCh:
	case <-r.done:
	}
}

// Start launches the dispatcher goroutine. It may be called once.
func (r *Runtime) Start() {
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		panic("livenet: Start called twice")
	}
	r.started = true
	r.timerAlive = true
	r.mu.Unlock()
	go r.loop()
	go r.timerLoop()
}

func (r *Runtime) loop() {
	defer close(r.done)
	for {
		r.mu.Lock()
		for len(r.queue) == 0 && !r.stopped {
			r.cond.Wait()
		}
		if r.stopped && len(r.queue) == 0 {
			r.mu.Unlock()
			return
		}
		fn := r.queue[0]
		r.queue = r.queue[1:]
		r.mu.Unlock()
		fn()
	}
}

// Stop drains the queue and stops the dispatcher. Pending timers that
// fire afterwards are dropped. Safe to call once, from outside the
// dispatcher.
func (r *Runtime) Stop() {
	r.mu.Lock()
	if !r.started || r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	r.cond.Signal()
	alive := r.timerAlive
	r.timerAlive = false
	r.mu.Unlock()
	if alive {
		close(r.timerQuit)
		<-r.timerDone
	}
	<-r.done
}

var _ sim.Scheduler = (*Runtime)(nil)
