package rdpcore

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestGroupProxyForgetsResolvedBatches: a proxy keeps the batches its host
// has not resolved, not every batch the host ever opened. One host opens n
// one-member batches in sequence — at its cell's group proxy, which never
// retires, and at a private proxy that a slow plain request keeps alive.
// Each open carries the host's floor, so whatever n, one record and one
// floor are left, StateBytes counts them, and it reads the same for every
// n.
func TestGroupProxyForgetsResolvedBatches(t *testing.T) {
	for _, group := range []bool{true, false} {
		state := map[int]int{}
		for _, n := range []int{5, 50} {
			w, _ := aggWorld(t, 20*time.Millisecond, func(cfg *Config) {
				if !group {
					cfg.GroupTopic = nil
					cfg.ServerProc = &scriptedProc{delays: []time.Duration{time.Hour}}
				}
			})
			mh := w.AddMH(1, 1)
			w.Kernel.Defer(0, func() { mh.IssueRequest(1, []byte("sub")) })
			var member ids.RequestID
			for i := 0; i < n; i++ {
				w.Kernel.Defer(time.Duration(200*(i+1))*time.Millisecond, func() {
					b := mh.BeginBatch()
					member = mh.BatchRequest(b, 1, []byte("b"))
					mh.CommitBatch(b)
				})
			}
			w.RunUntil(time.Duration(200*(n+2)) * time.Millisecond)

			pref, _ := w.MSSs[1].PrefOf(1)
			p := w.MSSs[1].ProxyByID(pref.Proxy)
			if p == nil || isSharedProxy(pref.Proxy) != group {
				t.Fatalf("group %v, n %d: pref %v names no proxy of the kind here", group, n, pref)
			}
			if !mh.Seen(member) || w.Stats.BatchesOpened.Value() != int64(n) {
				t.Fatalf("group %v, n %d: last batch delivered %v, %d opened", group, n, mh.Seen(member), w.Stats.BatchesOpened.Value())
			}
			if len(p.batches) > 1 || len(p.floors) != 1 {
				t.Errorf("group %v, n %d: %d batch records, %d floors; want at most 1 and 1", group, n, len(p.batches), len(p.floors))
			}
			total := w.MSSs[1].StateBytes()
			batches, floors := p.batches, p.floors
			p.batches, p.floors = nil, nil
			if got, want := total-w.MSSs[1].StateBytes(), len(batches)*bytesBatch+len(floors)*bytesFloor; got != want {
				t.Errorf("group %v, n %d: StateBytes counts %d B of batch state, want %d", group, n, got, want)
			}
			p.batches, p.floors = batches, floors
			state[n] = total
		}
		if state[5] != state[50] {
			t.Errorf("group %v: StateBytes %d after 5 batches, %d after 50", group, state[5], state[50])
		}
	}
}

// TestHostForgetsResolvedBatches: a host keeps its batches from its floor
// up, not every batch it ever opened. It opens n one-member batches in
// sequence, every fifth one aborted by its deadline and the rest
// delivered; whatever n, at most one batch is left in its window, and the
// next BatchOpen carries floor n+1.
func TestHostForgetsResolvedBatches(t *testing.T) {
	rows := map[int]int{}
	for _, n := range []int{5, 50} {
		cfg := DefaultConfig()
		cfg.NumMSS, cfg.BatchDeadline, cfg.RequestTimeout = 2, 100*time.Millisecond, 300*time.Millisecond
		cfg.WiredLatency = netsim.Constant(5 * time.Millisecond)
		cfg.WirelessLatency = netsim.Constant(10 * time.Millisecond)
		delays := make([]time.Duration, n)
		for i := 1; i < n; i += 5 {
			delays[i] = time.Hour // batches 2, 7, 12, … are aborted
		}
		cfg.ServerProc = &scriptedProc{delays: delays}
		var floor uint32
		cfg.Observer = func(_ sim.Time, _ netsim.Layer, kind netsim.EventKind, _, to ids.NodeID, m msg.Message) {
			if o, ok := m.(msg.BatchOpen); ok && kind == netsim.EventDelivered && to.Kind == ids.KindMSS {
				floor = o.Floor
			}
		}
		w := NewWorld(cfg)
		h := w.AddMH(1, 1)
		members := make([]ids.RequestID, n)
		for i := 0; i < n; i++ {
			w.Kernel.Defer(time.Duration(500*i)*time.Millisecond, func() {
				b := h.BeginBatch()
				members[i] = h.BatchRequest(b, 1, []byte("b"))
				h.CommitBatch(b)
			})
		}
		w.RunUntil(time.Duration(500*n) * time.Millisecond)
		for i, m := range members {
			if aborted := i%5 == 1; h.Abandoned(m) != aborted || h.Seen(m) == aborted {
				t.Fatalf("n %d: batch %d's member %v abandoned %v, seen %v", n, i+1, m, h.Abandoned(m), h.Seen(m))
			}
		}
		if got := len(h.batchWin.rows); got > 1 {
			t.Errorf("n %d: the host keeps %d batches, want at most 1", n, got)
		}
		rows[n] = len(h.batchWin.rows)
		h.BeginBatch()
		w.RunUntil(time.Duration(500*n+100) * time.Millisecond)
		if floor != uint32(n+1) {
			t.Errorf("n %d: the next BatchOpen carries floor %d, want %d", n, floor, n+1)
		}
	}
	if rows[5] != rows[50] {
		t.Errorf("the host keeps %d batches after 5, %d after 50", rows[5], rows[50])
	}
}

// dropUplinks drops the first n uplinks of one kind.
type dropUplinks struct {
	netsim.WirelessTransport
	kind msg.Kind
	n    int
}

func (d *dropUplinks) SendUplink(mh ids.MH, to ids.MSS, m msg.Message) {
	if m.Kind() == d.kind && d.n > 0 {
		d.n--
		return
	}
	d.WirelessTransport.SendUplink(mh, to, m)
}

// abortsTo counts the batch aborts delivered to a mobile host, by batch.
type abortsTo map[ids.BatchID]int

func (a abortsTo) observe(_ sim.Time, _ netsim.Layer, kind netsim.EventKind, _, to ids.NodeID, m msg.Message) {
	if v, ok := m.(msg.BatchAbort); ok && kind == netsim.EventDelivered && to.Kind == ids.KindMH {
		a[v.Batch]++
	}
}

// TestRebootedHostIgnoresDeadIncarnationAbort: a host opens a batch whose
// server never answers, crashes at 40 ms and restarts at once. The batch
// deadline's abort reaches the reborn host, which must not abandon
// anything for it: its next request reuses the dead member's identifier,
// and when that request's first uplink is lost, only a live retry chain
// delivers it.
func TestRebootedHostIgnoresDeadIncarnationAbort(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumMSS, cfg.BatchDeadline, cfg.RequestTimeout = 2, 100*time.Millisecond, 300*time.Millisecond
	cfg.WiredLatency = netsim.Constant(5 * time.Millisecond)
	cfg.WirelessLatency = netsim.Constant(10 * time.Millisecond)
	// The member's server never answers; the later request is answered at once.
	cfg.ServerProc = &scriptedProc{delays: []time.Duration{time.Hour}}
	aborts := abortsTo{}
	cfg.Observer = aborts.observe
	w := NewWorld(cfg)
	h := w.AddMH(1, 1)
	var member ids.RequestID
	w.Kernel.Defer(0, func() { member = h.BatchRequest(h.BeginBatch(), 1, []byte("q")) })
	w.Kernel.Defer(40*time.Millisecond, func() {
		w.CrashMH(1)
		w.RestartMH(1)
	})
	w.RunUntil(500 * time.Millisecond)
	if got := aborts[ids.BatchID{Origin: 1, Seq: 1}]; got != 1 || h.inc != 2 {
		t.Fatalf("set-up: %d aborts reached the host of incarnation %v; want 1 and 2", got, h.inc)
	}
	drop := &dropUplinks{WirelessTransport: w.Wireless, kind: msg.KindRequest, n: 1}
	w.Wireless = drop
	req := h.IssueRequest(1, []byte("r"))
	w.RunUntil(3 * time.Second)
	if req != member || drop.n != 0 {
		t.Fatalf("set-up: request %v, member %v, %d drops left", req, member, drop.n)
	}
	if !h.Seen(req) || h.Abandoned(req) {
		t.Errorf("request %v seen %v, abandoned %v; want delivered", req, h.Seen(req), h.Abandoned(req))
	}
	if log := w.ViolationLog(); len(log) != 0 {
		t.Errorf("violations: %q", log)
	}
}

// TestBatchReplayBelowFloorRefused: at a proxy a slow plain request keeps
// alive, batch 1 is aborted by its deadline and batch 2 delivered; the
// open of batch 3 carries floor 3, and the proxy forgets both. A replay
// of either batch's open, item and commit is then refused: no server
// request goes out, no abort reaches the host, and no record comes back.
func TestBatchReplayBelowFloorRefused(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumMSS, cfg.BatchDeadline = 2, 100*time.Millisecond
	cfg.WiredLatency = netsim.Constant(5 * time.Millisecond)
	cfg.WirelessLatency = netsim.Constant(10 * time.Millisecond)
	// The plain request, batch 1's member and batch 3's are never
	// answered; batch 2's at once.
	cfg.ServerProc = &scriptedProc{delays: []time.Duration{time.Hour, time.Hour, 0, time.Hour}}
	aborts := abortsTo{}
	var served int
	cfg.Observer = func(at sim.Time, l netsim.Layer, kind netsim.EventKind, from, to ids.NodeID, m msg.Message) {
		aborts.observe(at, l, kind, from, to, m)
		if m.Kind() == msg.KindServerRequest && kind == netsim.EventDelivered {
			served++
		}
	}
	w := NewWorld(cfg)
	h := w.AddMH(1, 1)
	w.Kernel.Defer(0, func() { h.IssueRequest(1, []byte("slow")) })
	var bs []ids.BatchID
	var members []ids.RequestID
	for i := 0; i < 3; i++ {
		w.Kernel.Defer(time.Duration(300*i)*time.Millisecond, func() {
			b := h.BeginBatch()
			members = append(members, h.BatchRequest(b, 1, []byte("q")))
			if i == 1 {
				h.CommitBatch(b)
			}
			bs = append(bs, b)
		})
	}
	w.RunUntil(800 * time.Millisecond)
	pref, _ := w.MSSs[1].PrefOf(1)
	p := w.MSSs[1].ProxyByID(pref.Proxy)
	if d := h.Seen(members[1]); p == nil || !d || aborts[bs[0]] != 1 || served != 4 ||
		p.batch(bs[0]) != nil || p.batch(bs[1]) != nil {
		t.Fatalf("set-up: proxy %v, batch 2 delivered %v, %d aborts of batch 1, %d served", pref.Proxy, d, aborts[bs[0]], served)
	}
	opened := w.Stats.BatchesOpened.Value()
	for i, b := range bs[:2] {
		h.uplink(msg.BatchOpen{MH: 1, Batch: b, Inc: h.inc, Floor: b.Seq})
		h.uplink(msg.BatchItem{MH: 1, Batch: b, Req: members[i], Server: 1, Payload: []byte("q"), Inc: h.inc})
		h.uplink(msg.BatchCommit{MH: 1, Batch: b, Count: 1, Inc: h.inc})
	}
	w.RunUntil(time.Second)
	if served != 4 || aborts[bs[0]] != 1 || aborts[bs[1]] != 0 || w.Stats.BatchesOpened.Value() != opened {
		t.Errorf("after the replay: %d served, aborts %v, %d batches opened; want 4, one of batch 1, %d",
			served, aborts, w.Stats.BatchesOpened.Value(), opened)
	}
	if p.batch(bs[0]) != nil || p.batch(bs[1]) != nil {
		t.Errorf("the replay brought back records: %+v", p.batches)
	}
}
