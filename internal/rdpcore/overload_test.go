package rdpcore

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
)

// overloadWorld is a quickWorld with station processing time and the
// admission stack dialed in by the caller.
func overloadWorld(mutate func(*Config)) *World {
	return quickWorld(func(c *Config) {
		c.ProcDelay = 20 * time.Millisecond
		if mutate != nil {
			mutate(c)
		}
	})
}

func TestAdmissionRefusesPastHighWater(t *testing.T) {
	w := overloadWorld(func(c *Config) { c.AdmissionHighWater = 2 })
	mh := w.AddMH(1, 1)
	const n = 12
	reqs := make([]ids.RequestID, 0, n)
	// Burst after registration has settled: admission only guards
	// requests from MHs the station knows it is responsible for.
	w.Kernel.Defer(200*time.Millisecond, func() {
		for i := 0; i < n; i++ {
			reqs = append(reqs, mh.IssueRequest(1, []byte("x")))
		}
	})
	w.RunUntil(5 * time.Second)

	delivered := w.Stats.ResultsDelivered.Value()
	refused := w.Stats.BusyRefusals.Value()
	if refused == 0 {
		t.Fatal("no busy refusals under a 6x burst with high-watermark 2")
	}
	if delivered+refused != n {
		t.Errorf("delivered %d + refused %d != issued %d: unaccounted shortfall",
			delivered, refused, n)
	}
	for _, req := range reqs {
		if mh.Seen(req) != mh.Admitted(req) {
			t.Errorf("request %v: seen=%v admitted=%v, want them to agree",
				req, mh.Seen(req), mh.Admitted(req))
		}
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestViewRequestClassAndAdmission: E11's shape — priority classes and
// an admission high-water mark — on a request shown as a view, the way
// every substrate shows it, and as a box. classOf and the admission check
// key on the kind, so either queues in class 2, new work, and once the
// inbox holds the high-water mark the next is refused with a busy-NACK.
func TestViewRequestClassAndAdmission(t *testing.T) {
	for _, asView := range []bool{true, false} {
		w := overloadWorld(func(c *Config) {
			c.PriorityClasses = true
			c.AdmissionHighWater = 2
		})
		w.AddMH(1, 1)
		w.RunUntil(200 * time.Millisecond) // the join is processed
		n := w.MSSs[1]
		for seq := uint32(1); seq <= 3; seq++ {
			l := msg.Request{Req: ids.RequestID{Origin: 1, Seq: seq}, Server: 1, Payload: []byte("x")}.Leg()
			m := l.Message()
			if asView {
				m = msg.ViewOf(&l)
			}
			n.HandleMessage(ids.MH(1).Node(), m)
		}
		if new := len(n.inbox.q[2]) - n.inbox.head[2]; new != 2 || n.inbox.len() != 2 ||
			w.Stats.BusyRefusals.Value() != 1 {
			t.Errorf("shown as a view %t: %d of %d queued as new work (class 2), %d refused; want 2 of 2, 1",
				asView, new, n.inbox.len(), w.Stats.BusyRefusals.Value())
		}
	}
}

func TestAdmittedRequestsGetAdmitMessage(t *testing.T) {
	w := overloadWorld(func(c *Config) { c.AdmissionHighWater = 100 })
	mh := w.AddMH(1, 1)
	var req ids.RequestID
	w.Kernel.Defer(0, func() { req = mh.IssueRequest(1, []byte("x")) })
	w.RunUntil(2 * time.Second)

	if !mh.Admitted(req) || !mh.Seen(req) {
		t.Errorf("admitted=%v seen=%v, want both", mh.Admitted(req), mh.Seen(req))
	}
	if got := w.Stats.BusyRefusals.Value(); got != 0 {
		t.Errorf("BusyRefusals = %d, want 0 far below the high-watermark", got)
	}
}

func TestBusyRetryEventuallyAdmitsEverything(t *testing.T) {
	w := overloadWorld(func(c *Config) {
		c.AdmissionHighWater = 2
		c.BusyRetryBase = 60 * time.Millisecond
	})
	mh := w.AddMH(1, 1)
	const n = 12
	reqs := make([]ids.RequestID, 0, n)
	w.Kernel.Defer(200*time.Millisecond, func() {
		for i := 0; i < n; i++ {
			reqs = append(reqs, mh.IssueRequest(1, []byte("x")))
		}
	})
	w.RunUntil(30 * time.Second)

	for _, req := range reqs {
		if !mh.Seen(req) {
			t.Errorf("request %v never delivered despite busy retry", req)
		}
	}
	if got := w.Stats.BusyRetries.Value(); got == 0 {
		t.Error("no busy retries recorded; backoff machinery never engaged")
	}
	if got := w.Stats.DuplicateDeliveries.Value(); got != 0 {
		t.Errorf("DuplicateDeliveries = %d, want 0: retries must not duplicate", got)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRequestDeadlineAbandonsOnlyUnadmitted(t *testing.T) {
	w := overloadWorld(func(c *Config) {
		c.AdmissionHighWater = 1
		c.RequestDeadline = 300 * time.Millisecond
	})
	mh := w.AddMH(1, 1)
	const n = 8
	reqs := make([]ids.RequestID, 0, n)
	w.Kernel.Defer(200*time.Millisecond, func() {
		for i := 0; i < n; i++ {
			reqs = append(reqs, mh.IssueRequest(1, []byte("x")))
		}
	})
	w.RunUntil(5 * time.Second)

	abandoned := w.Stats.RequestsAbandoned.Value()
	if abandoned == 0 {
		t.Fatal("no requests abandoned at the deadline")
	}
	for _, req := range reqs {
		switch {
		case mh.Admitted(req) && mh.Abandoned(req):
			t.Errorf("request %v both admitted and abandoned", req)
		case mh.Admitted(req) && !mh.Seen(req):
			t.Errorf("admitted request %v never delivered", req)
		case !mh.Admitted(req) && !mh.Abandoned(req):
			t.Errorf("request %v neither admitted nor abandoned", req)
		}
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInboxPeakBoundedByAdmission(t *testing.T) {
	burst := func(admit int) int64 {
		w := overloadWorld(func(c *Config) { c.AdmissionHighWater = admit })
		mh := w.AddMH(1, 1)
		w.Kernel.Defer(200*time.Millisecond, func() {
			for i := 0; i < 40; i++ {
				mh.IssueRequest(1, []byte("x"))
			}
		})
		w.RunUntil(10 * time.Second)
		return w.Stats.InboxPeak.Value()
	}
	unbounded := burst(0)
	bounded := burst(4)
	if bounded >= unbounded {
		t.Errorf("InboxPeak with admission = %d, without = %d; admission should bound queue growth",
			bounded, unbounded)
	}
}

func TestStationDelayHookSlowsProcessing(t *testing.T) {
	latency := func(extra time.Duration) time.Duration {
		w := overloadWorld(func(c *Config) {
			c.StationDelayHook = func(ids.MSS) time.Duration { return extra }
		})
		mh := w.AddMH(1, 1)
		w.Kernel.Defer(0, func() { mh.IssueRequest(1, []byte("x")) })
		w.RunUntil(10 * time.Second)
		if got := w.Stats.ResultsDelivered.Value(); got != 1 {
			t.Fatalf("ResultsDelivered = %d, want 1 (extra=%v)", got, extra)
		}
		return time.Duration(w.Stats.ResultLatency.Mean())
	}
	fast := latency(0)
	slow := latency(80 * time.Millisecond)
	if slow < fast+100*time.Millisecond {
		t.Errorf("latency with slowdown = %v, without = %v; hook did not slow the station",
			slow, fast)
	}
}
