package rdpcore

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// silentRadio is a wireless substrate that carries nothing: it records
// what hosts send up and delivers no frame in either direction, so a
// test can drive MHNode.HandleMessage by hand with the stations out of
// the picture.
type silentRadio struct{ up []msg.Message }

func (r *silentRadio) SendDownlink(ids.MSS, ids.MH, msg.Message) {}
func (r *silentRadio) SendUplink(_ ids.MH, _ ids.MSS, m msg.Message) {
	r.up = append(r.up, m)
}
func (r *silentRadio) RegisterMH(ids.MH, netsim.Handler)   {}
func (r *silentRadio) RegisterMSS(ids.MSS, netsim.Handler) {}

// reqOracle is the request bookkeeping of one host as plain maps — the
// representation MHNode had before its request table.
type reqOracle struct {
	crashed                                                 bool
	nextSeq                                                 uint32
	issued, seen, outstanding, admitted, abandoned, pending map[ids.RequestID]bool
	latencies, violations, busyRetries                      int64
}

func (o *reqOracle) wipe() {
	o.nextSeq = 0
	o.issued, o.seen, o.outstanding = map[ids.RequestID]bool{}, map[ids.RequestID]bool{}, map[ids.RequestID]bool{}
	o.admitted, o.abandoned, o.pending = map[ids.RequestID]bool{}, map[ids.RequestID]bool{}, map[ids.RequestID]bool{}
}

// TestRequestTableAgainstMapOracle drives one host through random
// histories of issue / result (first, duplicate, stale incarnation,
// foreign origin, beyond the table) / admit / busy / abandon / crash /
// reboot / detach+attach and checks, step by step, that the request
// table answers exactly as the plain-map bookkeeping would: Seen,
// Admitted and Abandoned for every identifier touched so far,
// HaveOutstanding on every Ack, and the ResultLatency, Violations and
// BusyRetries counts.
func TestRequestTableAgainstMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { requestTableHistory(t, seed) })
	}
}

func requestTableHistory(t *testing.T, seed int64) {
	const me = ids.MH(7)
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.NumMSS = 3
	cfg.BusyRetryBase = 10 * time.Millisecond
	radio := &silentRadio{}
	w := NewWorldWith(sim.NewKernel(seed), cfg, nil, radio)
	h := w.AddMH(me, 1)
	rnd := rand.New(rand.NewSource(seed))
	o := &reqOracle{}
	o.wipe()
	var touched []ids.RequestID
	pick := func() ids.RequestID {
		switch k := rnd.Intn(10); {
		case k == 0: // another host's identifier
			return ids.RequestID{Origin: me + 1, Seq: uint32(1 + rnd.Intn(4))}
		case k == 1: // beyond the table, close enough for later issues to reach
			return ids.RequestID{Origin: me, Seq: o.nextSeq + uint32(1+rnd.Intn(3))}
		case o.nextSeq == 0:
			return ids.RequestID{Origin: me, Seq: 1}
		default:
			return ids.RequestID{Origin: me, Seq: uint32(1 + rnd.Intn(int(o.nextSeq)))}
		}
	}
	deliver := func(m msg.Message) { h.HandleMessage(h.RespMss().Node(), m) }
	done := func(req ids.RequestID) bool { return o.seen[req] || o.admitted[req] || o.abandoned[req] }

	for step := 0; step < 400; step++ {
		radio.up = radio.up[:0]
		op := rnd.Intn(12)
		if o.crashed && op < 9 && op != 0 {
			op = 10 // a crashed host hears nothing; mostly reboot it
		}
		switch op {
		case 0, 1, 2: // issue
			req := h.IssueRequest(1, []byte("q"))
			if o.crashed {
				if req.Valid() {
					t.Fatalf("step %d: crashed host issued %v", step, req)
				}
				break
			}
			o.nextSeq++
			want := ids.RequestID{Origin: me, Seq: o.nextSeq}
			if req != want {
				t.Fatalf("step %d: issued %v, want %v", step, req, want)
			}
			o.issued[req], o.outstanding[req], o.pending[req] = true, true, true
			touched = append(touched, req)
		case 3, 4, 5: // result, first or duplicate
			req := pick()
			touched = append(touched, req)
			deliver(msg.ResultDeliver{Req: req, Payload: []byte("r"), Inc: h.inc})
			if !o.seen[req] && o.issued[req] {
				o.latencies++
			}
			o.seen[req] = true
			delete(o.outstanding, req)
			delete(o.pending, req)
			want := msg.Message(msg.AckMH{MH: me, Req: req, HaveOutstanding: len(o.outstanding) > 0})
			if len(radio.up) != 1 || radio.up[0] != want {
				t.Fatalf("step %d: result %v acked with %v, want %+v", step, req, radio.up, want)
			}
		case 6: // result for another incarnation: dropped unacknowledged
			deliver(msg.ResultDeliver{Req: pick(), Inc: h.inc + 1})
			if len(radio.up) != 0 {
				t.Fatalf("step %d: stale-incarnation result answered with %v", step, radio.up)
			}
		case 7: // admit
			req := pick()
			touched = append(touched, req)
			deliver(msg.Admit{Req: req})
			o.admitted[req] = true
			delete(o.pending, req)
		case 8: // busy-NACK, then let the backoff timer run out
			req := pick()
			if o.pending[req] && !done(req) {
				o.busyRetries++
			}
			deliver(msg.Busy{Req: req})
			w.Run()
		case 9: // abandon, through a batch abort naming arbitrary requests
			reqs := []ids.RequestID{pick(), pick()}
			touched = append(touched, reqs...)
			if o.crashed {
				break
			}
			deliver(msg.BatchAbort{MH: me, Batch: ids.BatchID{Origin: me, Seq: 99}, Reqs: reqs})
			for i, req := range reqs {
				switch {
				case i == 1 && req == reqs[0]:
				case o.seen[req]:
					o.violations++
				case o.abandoned[req]:
				default:
					o.abandoned[req] = true
					delete(o.outstanding, req)
					delete(o.pending, req)
				}
			}
		case 10: // crash, or reboot under the next incarnation
			if o.crashed {
				w.RestartMH(me)
				o.crashed = false
			} else {
				w.CrashMH(me)
				o.crashed = true
				o.wipe()
			}
		case 11: // region transfer
			n, active := w.DetachMH(me)
			w.AttachMH(n, ids.MSS(1+rnd.Intn(3)), active)
		}
		for _, req := range touched {
			if h.Seen(req) != o.seen[req] || h.Admitted(req) != (o.admitted[req] || o.seen[req]) ||
				h.Abandoned(req) != o.abandoned[req] {
				t.Fatalf("step %d op %d %v: seen/admitted/abandoned = %v/%v/%v, oracle %v/%v/%v", step, op, req,
					h.Seen(req), h.Admitted(req), h.Abandoned(req),
					o.seen[req], o.admitted[req] || o.seen[req], o.abandoned[req])
			}
		}
		if h.nOutstanding != len(o.outstanding) {
			t.Fatalf("step %d op %d: nOutstanding = %d, oracle %d", step, op, h.nOutstanding, len(o.outstanding))
		}
		if got := int64(w.Stats.ResultLatency.Count()); got != o.latencies {
			t.Fatalf("step %d op %d: %d latency samples, oracle %d", step, op, got, o.latencies)
		}
		if got := w.Stats.Violations.Value(); got != o.violations {
			t.Fatalf("step %d op %d: %d violations, oracle %d", step, op, got, o.violations)
		}
		if got := w.Stats.BusyRetries.Value(); got != o.busyRetries {
			t.Fatalf("step %d op %d: %d busy retries, oracle %d", step, op, got, o.busyRetries)
		}
	}
}

// TestRequestListOrder: the proxy's requestList keeps insertion order
// across removal and re-insertion, and a request re-registered by a
// newer incarnation replaces the orphaned entry where it stands.
func TestRequestListOrder(t *testing.T) {
	w, p, first := proxyFixture(t)
	id := func(seq uint32) ids.RequestID { return ids.RequestID{Origin: 1, Seq: seq} }
	order := func() (seqs []uint32) {
		for _, r := range p.reqs {
			seqs = append(seqs, r.id.Seq)
		}
		return seqs
	}
	expect := func(what string, want ...uint32) {
		t.Helper()
		if got := order(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: order %v, want %v", what, got, want)
		}
		if p.Pending() != len(want) {
			t.Fatalf("%s: Pending = %d, want %d", what, p.Pending(), len(want))
		}
	}
	for seq := uint32(2); seq <= 4; seq++ {
		p.addRequest(id(seq), 1, []byte("abc"), ids.FirstIncarnation)
	}
	expect("after adds", first.Seq, 2, 3, 4)
	p.addRequest(id(3), 1, []byte("dup"), ids.FirstIncarnation) // client retry
	expect("after duplicate", first.Seq, 2, 3, 4)
	p.onAck(id(2), false)
	expect("after ack", first.Seq, 3, 4)
	p.addRequest(id(2), 1, []byte("again"), ids.FirstIncarnation)
	expect("after re-add", first.Seq, 3, 4, 2)
	old := p.reqs.get(id(3))
	p.addRequest(id(3), 1, []byte("reborn"), ids.FirstIncarnation+1)
	expect("after incarnation replacement", first.Seq, 3, 4, 2)
	if r := p.reqs.get(id(3)); r != old || r.inc != ids.FirstIncarnation+1 || string(r.payload) != "reborn" {
		t.Errorf("replacement: entry %+v, want the same entry re-tagged inc2/reborn", r)
	}
	if p.reqs.get(id(9)) != nil || p.reqs.remove(id(9)) != nil {
		t.Error("absent request found")
	}
	// The E16 accounting model sees the list exactly as it saw the map:
	// one host entry, one pref, one proxy, four requests with payloads.
	want := bytesHostEntry + bytesPrefEntry + bytesProxy + 4*bytesProxyReq +
		len("x") + len("reborn") + len("abc") + len("again")
	if got := w.MSSs[1].StateBytes(); got != want {
		t.Errorf("StateBytes = %d, want %d", got, want)
	}
}

// TestDeviceStateAccessors: the by-id accessors answer from the node for
// a resident host and read "absent" for an unknown or detached one; the
// incarnation word survives a crash/restart and a region transfer.
func TestDeviceStateAccessors(t *testing.T) {
	w := quickWorld(nil)
	absent := func(what string, id ids.MH) {
		t.Helper()
		if w.IsActive(id) || w.IsDisconnected(id) || w.IsCrashed(id) || w.Location(id) != 0 ||
			w.IncarnationOf(id) != 0 || w.InCell(id, 1) || w.Reachable(1, id) {
			t.Errorf("%s host %v does not read as absent", what, id)
		}
	}
	absent("unknown", 5)
	w.AddMH(5, 2)
	if !w.IsActive(5) || w.Location(5) != 2 || !w.InCell(5, 2) || !w.Reachable(2, 5) ||
		w.Reachable(1, 5) || w.IncarnationOf(5) != ids.FirstIncarnation {
		t.Error("resident host misread")
	}
	w.CrashMH(5)
	if !w.IsCrashed(5) || w.Reachable(2, 5) || w.IncarnationOf(5) != ids.FirstIncarnation {
		t.Error("crash: flag not set, still reachable, or incarnation word wiped")
	}
	w.RestartMH(5)
	if w.IsCrashed(5) || w.IncarnationOf(5) != ids.FirstIncarnation+1 {
		t.Errorf("restart: crashed=%v inc=%v, want inc2", w.IsCrashed(5), w.IncarnationOf(5))
	}
	w.CrashMH(5)
	w.Disconnect(5)
	h, active := w.DetachMH(5)
	absent("detached", 5)
	other := quickWorld(nil)
	other.AttachMH(h, 3, active)
	absent("departed", 5)
	if !other.IsCrashed(5) || !other.IsDisconnected(5) || !other.IsActive(5) || other.Location(5) != 3 ||
		other.IncarnationOf(5) != ids.FirstIncarnation+1 || other.Reachable(3, 5) {
		t.Error("re-attached host lost device state in transit")
	}
	other.RestartMH(5)
	if got := other.IncarnationOf(5); got != ids.FirstIncarnation+2 {
		t.Errorf("incarnation after transfer and restart = %v, want inc3", got)
	}
}

// TestDisconnectedHostTransfersWhole: a disconnected host carried into
// another world's cell stays disconnected there — its Reconnect re-greets
// and replays the journaled offline queue, and the request it issued
// while out of coverage is delivered. (RegConfirm, as in E17: the greet
// of a move made out of coverage is lost, so the reconnection greet must
// name the last station that confirmed a registration.)
func TestDisconnectedHostTransfersWhole(t *testing.T) {
	w := quickWorld(func(c *Config) { c.Checkpoint, c.RegConfirm = true, true })
	mh := w.AddMH(1, 1)
	var req ids.RequestID
	w.Schedule(100*time.Millisecond, func() {
		w.Disconnect(1)
		req = mh.IssueRequest(1, []byte("offline"))
	})
	w.Schedule(150*time.Millisecond, func() {
		h, active := w.DetachMH(1)
		w.AttachMH(h, 3, active)
	})
	w.Schedule(200*time.Millisecond, func() {
		if !w.IsDisconnected(1) {
			t.Error("the transfer reconnected the host silently")
		}
		w.Reconnect(1)
	})
	w.RunUntil(2 * time.Second)
	if got := w.Stats.OfflineReplayed.Value(); got != 1 {
		t.Errorf("OfflineReplayed = %d, want 1", got)
	}
	if !mh.Seen(req) {
		t.Error("request issued while disconnected was never delivered")
	}
	if err := w.CheckQuiescent(); err != nil {
		t.Error(err)
	}
}

// TestOutstandingLedgerRoundTrip: the station's outstanding ledger
// survives checkpoint → crash → restore entry for entry, and an emptied
// ledger counts for nothing in OutstandingBytes.
func TestOutstandingLedgerRoundTrip(t *testing.T) {
	w := quickWorld(func(c *Config) {
		c.Checkpoint = true
		c.ServerProc = netsim.Constant(time.Second)
	})
	a, b := w.AddMH(1, 1), w.AddMH(2, 1)
	w.Schedule(0, func() {
		a.IssueRequest(1, []byte("a1"))
		a.IssueRequest(1, []byte("a2"))
		b.IssueRequest(1, []byte("b1"))
	})
	w.RunUntil(100 * time.Millisecond)
	n := w.MSSs[1]
	before := n.OutstandingBytes()
	if want := 2*bytesOutstandingMH + 3*bytesOutstandingReq; before != want {
		t.Fatalf("OutstandingBytes = %d, want %d", before, want)
	}
	ledger := fmt.Sprint(n.outstanding)
	w.CrashMSS(1)
	if n.OutstandingBytes() != 0 {
		t.Fatal("crash left a ledger behind")
	}
	w.RestartMSS(1)
	if got := fmt.Sprint(n.outstanding); got != ledger || n.OutstandingBytes() != before {
		t.Errorf("restored ledger %s (%d B), want %s (%d B)", got, n.OutstandingBytes(), ledger, before)
	}
	w.RunUntil(5 * time.Second)
	if n.OutstandingBytes() != 0 {
		t.Errorf("OutstandingBytes = %d after every Ack, want 0", n.OutstandingBytes())
	}
	if !a.Seen(ids.RequestID{Origin: 1, Seq: 2}) || !b.Seen(ids.RequestID{Origin: 2, Seq: 1}) {
		t.Error("results lost across the station crash")
	}
}
