package sim

import "time"

// Scheduler is the execution substrate the protocol code runs on: a
// clock, deferred execution and a random source. Two implementations
// exist — the deterministic discrete-event Kernel in this package
// (virtual time, used by all experiments) and livenet.Runtime
// (goroutines and wall-clock time, used to demonstrate the same
// protocol code running live).
//
// Nothing scheduled can be taken back. A timer its owner stops wanting
// (a crashed station's, a departed host's, an acknowledged frame's) fires
// anyway and does nothing, because its callback checks a generation the
// owner moved on (see Calls for the allocation-free form), or, waiting in
// a Timeouts, is dropped unfired once it can only do nothing.
//
// Implementations must serialize all scheduled callbacks: protocol
// state machines rely on running one event at a time.
type Scheduler interface {
	// Now returns the current (virtual or wall-clock) time since start.
	Now() Time
	// Defer schedules fn to run after delay; fn runs serialized with all
	// other callbacks.
	Defer(delay time.Duration, fn func())
	// RNG returns the scheduler's deterministic random source.
	RNG() *RNG
}

var _ Scheduler = (*Kernel)(nil)

// Canceler is the handle Kernel.After returns.
type Canceler interface {
	Cancel() bool
}

// After schedules fn like Defer and returns a handle whose Cancel turns
// the call into a no-op: the event stays queued and still fires, counted
// as a step. Cancel reports whether fn was still due to run. Nothing in
// the product calls it; it remains only because the benchmark's traced
// scheduler (perf/trace.go) names it, and it goes when that harness
// stops doing so.
func (k *Kernel) After(delay time.Duration, fn func()) Canceler {
	if fn == nil {
		panic("sim: nil event callback")
	}
	c := &afterCall{fn: fn}
	k.Defer(delay, c.fire)
	return c
}

// afterCall is one After: fn until it fires or is cancelled, nil after.
type afterCall struct{ fn func() }

func (c *afterCall) fire() {
	if fn := c.fn; fn != nil {
		c.fn = nil
		fn()
	}
}

func (c *afterCall) Cancel() bool {
	pending := c.fn != nil
	c.fn = nil
	return pending
}
