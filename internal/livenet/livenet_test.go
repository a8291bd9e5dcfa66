package livenet

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/rdpcore"
)

func TestAfterFiresSerialized(t *testing.T) {
	r := New(1)
	r.Start()
	defer r.Stop()

	var mu int32 // guarded by the serialization property itself
	var order []int
	done := make(chan struct{})
	for i := 0; i < 10; i++ {
		i := i
		r.Defer(time.Duration(i)*2*time.Millisecond, func() {
			if atomic.AddInt32(&mu, 1) != 1 {
				t.Error("callbacks ran concurrently")
			}
			order = append(order, i)
			atomic.AddInt32(&mu, -1)
			if len(order) == 10 {
				close(done)
			}
		})
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("callbacks did not complete")
	}
}

func TestDoRunsOnDispatcher(t *testing.T) {
	r := New(1)
	r.Start()
	defer r.Stop()
	ran := false
	r.Do(func() { ran = true })
	if !ran {
		t.Error("Do did not run the callback")
	}
}

func TestStopDropsLatePosts(t *testing.T) {
	r := New(1)
	r.Start()
	r.Stop()
	r.Post(func() { t.Error("post after Stop executed") })
	time.Sleep(20 * time.Millisecond)
}

func TestNowAdvances(t *testing.T) {
	r := New(1)
	a := r.Now()
	time.Sleep(5 * time.Millisecond)
	if b := r.Now(); b <= a {
		t.Errorf("Now did not advance: %v then %v", a, b)
	}
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil callback must panic")
		}
	}()
	New(1).Defer(time.Millisecond, nil)
}

// TestRDPWorldRunsLive runs the unchanged rdpcore protocol stack on the
// live runtime: a request is issued, the MH migrates mid-flight, and the
// result still arrives — in real milliseconds, on goroutines.
func TestRDPWorldRunsLive(t *testing.T) {
	rt := New(7)
	cfg := rdpcore.DefaultConfig()
	cfg.NumMSS = 3
	cfg.WiredLatency = netsim.Constant(2 * time.Millisecond)
	cfg.WirelessLatency = netsim.Constant(3 * time.Millisecond)
	cfg.ServerProc = netsim.Constant(40 * time.Millisecond)
	w := rdpcore.NewWorldOn(rt, cfg)
	rt.Start()
	defer rt.Stop()

	var (
		mh  *rdpcore.MHNode
		req ids.RequestID
	)
	delivered := make(chan struct{}, 1)
	rt.Do(func() {
		mh = w.AddMH(1, 1)
		mh.OnResult(func(_ ids.RequestID, _ []byte, dup bool) {
			if !dup {
				delivered <- struct{}{}
			}
		})
		req = mh.IssueRequest(1, []byte("live"))
	})
	// Migrate while the server is processing.
	time.Sleep(15 * time.Millisecond)
	rt.Do(func() { w.Migrate(1, 2) })

	select {
	case <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("result not delivered on the live runtime")
	}
	rt.Do(func() {
		if !mh.Seen(req) {
			t.Error("Seen(req) false after delivery")
		}
		if got := w.Stats.Handoffs.Value(); got != 1 {
			t.Errorf("Handoffs = %d, want 1", got)
		}
		if err := w.CheckInvariants(); err != nil {
			t.Error(err)
		}
	})
}

// TestRunUntilPanicsOnLiveWorld documents that live worlds cannot be
// stepped like simulations.
func TestRunUntilPanicsOnLiveWorld(t *testing.T) {
	rt := New(1)
	w := rdpcore.NewWorldOn(rt, rdpcore.DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("RunUntil on a live world must panic")
		}
	}()
	w.RunUntil(time.Second)
}

func TestEqualDeadlineOrdering(t *testing.T) {
	// Two callbacks scheduled back-to-back with the same delay must run
	// in scheduling order — the property Go's runtime timers do not
	// guarantee and protocol code depends on (a join must precede the
	// request sent right after it). This is the regression test for the
	// runtime's ordered timer heap.
	for trial := 0; trial < 20; trial++ {
		r := New(int64(trial))
		r.Start()
		var order []int
		done := make(chan struct{})
		const n = 50
		for i := 0; i < n; i++ {
			i := i
			r.Defer(5*time.Millisecond, func() {
				order = append(order, i)
				if len(order) == n {
					close(done)
				}
			})
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("callbacks did not complete")
		}
		r.Stop()
		for i, got := range order {
			if got != i {
				t.Fatalf("trial %d: equal-deadline callbacks reordered: %v", trial, order)
			}
		}
	}
}

// TestLiveRandomSoak runs a small randomized workload on the live
// runtime under the race detector: concurrent timers, external Do calls
// and the full protocol stack must stay data-race free and deliver
// everything.
func TestLiveRandomSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock soak")
	}
	rt := New(11)
	cfg := rdpcore.DefaultConfig()
	cfg.NumMSS = 4
	cfg.NumServers = 2
	cfg.WiredLatency = netsim.Constant(time.Millisecond)
	cfg.WirelessLatency = netsim.Constant(2 * time.Millisecond)
	cfg.ServerProc = netsim.Constant(10 * time.Millisecond)
	w := rdpcore.NewWorldOn(rt, cfg)

	// Setup happens before Start (the scheduler is not yet dispatching).
	hosts := make([]*rdpcore.MHNode, 0, 4)
	for i := 1; i <= 4; i++ {
		hosts = append(hosts, w.AddMH(ids.MH(i), ids.MSS(i%4+1)))
	}
	rt.Start()
	defer rt.Stop()

	var reqs []ids.RequestID
	// External goroutine drives ops through Do, racing the dispatcher.
	for round := 0; round < 30; round++ {
		round := round
		rt.Do(func() {
			id := ids.MH(round%4 + 1)
			switch round % 5 {
			case 0:
				w.Migrate(id, ids.MSS(round%4+1))
			case 1:
				w.SetActive(id, round%2 == 0)
			default:
				reqs = append(reqs, hosts[round%4].IssueRequest(ids.Server(round%2+1), []byte("r")))
			}
		})
		time.Sleep(3 * time.Millisecond)
	}
	// Wake everyone and drain.
	rt.Do(func() {
		for i := 1; i <= 4; i++ {
			w.SetActive(ids.MH(i), true)
		}
	})
	time.Sleep(300 * time.Millisecond)

	rt.Do(func() {
		for _, r := range reqs {
			if !w.MHs[r.Origin].Seen(r) {
				t.Errorf("%v undelivered on the live runtime", r)
			}
		}
		if err := w.CheckInvariants(); err != nil {
			t.Error(err)
		}
		if got := w.Stats.Violations.Value(); got != 0 {
			t.Errorf("Violations = %d", got)
		}
	})
}
