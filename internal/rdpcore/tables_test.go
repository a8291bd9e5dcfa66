package rdpcore

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/aggstate"
	"repro/internal/faults"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/proxymig"
	"repro/internal/sim"
	"repro/internal/workload"
)

// silentRadio is a wireless substrate that carries nothing: it keeps
// what hosts send up and delivers no frame in either direction, so a
// test can drive MHNode.HandleMessage by hand with the stations out of
// the picture.
type silentRadio struct{ up []msg.Message }

func (r *silentRadio) SendDownlink(ids.MSS, ids.MH, msg.Message) {}
func (r *silentRadio) SendUplink(_ ids.MH, _ ids.MSS, m msg.Message) {
	r.up = append(r.up, msg.Keep(m))
}
func (r *silentRadio) RegisterMH(ids.MH, netsim.Handler)   {}
func (r *silentRadio) RegisterMSS(ids.MSS, netsim.Handler) {}

// reqOracle is the request bookkeeping of one host as plain maps — the
// representation MHNode had before its request table.
type reqOracle struct {
	crashed                                                 bool
	nextSeq                                                 uint32
	issued, seen, outstanding, admitted, abandoned, pending map[ids.RequestID]bool
	latencies, duplicates, violations, busyRetries          int64
	// batch is the host's open batch and members its requests; ghost is
	// a batch of a dead incarnation, ghostInc that incarnation.
	batch, ghost ids.BatchID
	ghostInc     ids.Incarnation
	members      []ids.RequestID
}

func (o *reqOracle) wipe() {
	o.nextSeq, o.batch, o.members = 0, ids.BatchID{}, nil
	o.issued, o.seen, o.outstanding = map[ids.RequestID]bool{}, map[ids.RequestID]bool{}, map[ids.RequestID]bool{}
	o.admitted, o.abandoned, o.pending = map[ids.RequestID]bool{}, map[ids.RequestID]bool{}, map[ids.RequestID]bool{}
}

// TestRequestTableAgainstMapOracle drives one host through random
// histories of issue / result (first, duplicate, stale incarnation,
// foreign origin, beyond the table) / admit / busy / abandon / crash /
// reboot / detach+attach and checks, step by step, that the request
// table answers exactly as the plain-map bookkeeping would: Seen,
// Admitted and Abandoned for every identifier touched so far — also
// those the table's window has moved past — HaveOutstanding on every
// Ack, and the ResultLatency, DuplicateDeliveries, Violations and
// BusyRetries counts. Neither window keeps what is closed: after every
// issue the request window leads with a row that has something pending,
// no stray row has anything pending, and the host's batch window holds
// at most the model's open batch.
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
	windowed := false // the window moved past a settled row at some step
	// leads checks, after an issue, that the window starts at a row with
	// something pending: it moved past every settled row before it.
	leads := func(step int) {
		if len(h.reqs) == 0 || h.reqs[0].flags&reqPending == 0 {
			t.Fatalf("step %d: after an issue the window (base %d) leads with %+v", step, h.base, h.reqs)
		}
	}

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
			leads(step)
		case 3, 4, 5: // result, first or duplicate
			req := pick()
			touched = append(touched, req)
			deliver(msg.ResultDeliver{Req: req, Payload: []byte("r"), Inc: h.inc})
			if !o.seen[req] && o.issued[req] {
				o.latencies++
			}
			if o.seen[req] {
				o.duplicates++
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
		case 9: // a batch of two: open it, or abandon it through an abort naming it
			switch {
			case o.crashed:
			case o.ghost.Valid() && rnd.Intn(3) == 0:
				// A dead incarnation's abort, maybe naming a batch this
				// one reuses the identifier of: nothing is abandoned.
				deliver(msg.BatchAbort{MH: me, Batch: o.ghost, Inc: o.ghostInc})
			case !o.batch.Valid():
				o.batch = h.BeginBatch()
				for range 2 {
					req := h.BatchRequest(o.batch, 1, []byte("b"))
					o.nextSeq++
					o.issued[req], o.outstanding[req] = true, true
					o.members = append(o.members, req)
					touched = append(touched, req)
					leads(step)
				}
			default:
				deliver(msg.BatchAbort{MH: me, Batch: o.batch, Inc: h.inc})
				for _, req := range o.members {
					switch {
					case o.seen[req]:
						o.violations++
					case o.abandoned[req]:
					default:
						o.abandoned[req] = true
						delete(o.outstanding, req)
					}
				}
				o.batch, o.members = ids.BatchID{}, nil
			}
		case 10: // crash, or reboot under the next incarnation
			if o.crashed {
				w.RestartMH(me)
				o.crashed = false
			} else {
				if o.batch.Valid() {
					o.ghost, o.ghostInc = o.batch, h.inc
				}
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
		if got := w.Stats.DuplicateDeliveries.Value(); got != o.duplicates {
			t.Fatalf("step %d op %d: %d duplicates, oracle %d", step, op, got, o.duplicates)
		}
		windowed = windowed || h.base > 0
		for req, q := range h.stray {
			if q.flags&reqPending != 0 {
				t.Fatalf("step %d op %d: stray row %v has something pending (%08b)", step, op, req, q.flags)
			}
		}
		if bw := h.batchWin; bw != nil && (len(bw.rows) > 1 || len(bw.rows) == 1 && bw.resolved+1 != o.batch.Seq) {
			t.Fatalf("step %d op %d: the host's batch window holds %d batches from %d, the model's open batch is %v",
				step, op, len(bw.rows), bw.resolved+1, o.batch)
		}
		if got := w.Stats.Violations.Value(); got != o.violations {
			t.Fatalf("step %d op %d: %d violations, oracle %d", step, op, got, o.violations)
		}
		if got := w.Stats.BusyRetries.Value(); got != o.busyRetries {
			t.Fatalf("step %d op %d: %d busy retries, oracle %d", step, op, got, o.busyRetries)
		}
	}
	if !windowed {
		t.Errorf("the request table's window never moved")
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
			seqs = append(seqs, r.Req.Seq)
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
		p.addRequest(id(seq), 1, []byte("abc"), ids.FirstIncarnation, p.host.id)
	}
	expect("after adds", first.Seq, 2, 3, 4)
	p.addRequest(id(3), 1, []byte("dup"), ids.FirstIncarnation, p.host.id) // client retry
	expect("after duplicate", first.Seq, 2, 3, 4)
	p.onAck(id(2), false)
	expect("after ack", first.Seq, 3, 4)
	p.addRequest(id(2), 1, []byte("again"), ids.FirstIncarnation, p.host.id)
	expect("after re-add", first.Seq, 3, 4, 2)
	old := p.req(id(3))
	p.addRequest(id(3), 1, []byte("reborn"), ids.FirstIncarnation+1, p.host.id)
	expect("after incarnation replacement", first.Seq, 3, 4, 2)
	if r := p.req(id(3)); r != old || r.Inc != ids.FirstIncarnation+1 || string(r.Payload) != "reborn" {
		t.Errorf("replacement: entry %+v, want the same entry re-tagged inc2/reborn", r)
	}
	if p.req(id(9)) != nil || p.removeReq(id(9)) {
		t.Error("absent request found")
	}
	// The E16 accounting model sees the list exactly as it saw the map:
	// one pref, one proxy, four requests with payloads.
	want := bytesPrefEntry + bytesProxy + 4*bytesProxyReq +
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

// TestRoutedRoundTrip: the station's routed watermarks survive
// checkpoint → crash → restore, and every request they count reaches its
// proxy.
func TestRoutedRoundTrip(t *testing.T) {
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
	routed := func() string { return fmt.Sprint(n.peek(1).routed, n.peek(2).routed) }
	if got := routed(); got != "2 1" {
		t.Fatalf("routed = %s, want 2 1", got)
	}
	w.CrashMSS(1)
	if got := routed(); got != "0 0" {
		t.Fatalf("crash left routed %s behind", got)
	}
	w.RestartMSS(1)
	if got := routed(); got != "2 1" {
		t.Errorf("restored routed %s, want 2 1", got)
	}
	w.RunUntil(5 * time.Second)
	if !a.Seen(ids.RequestID{Origin: 1, Seq: 2}) || !b.Seen(ids.RequestID{Origin: 2, Seq: 1}) {
		t.Error("results lost across the station crash")
	}
	if err := w.CheckQuiescent(); err != nil {
		t.Error(err)
	}
}

// silentWired is a backbone that carries nothing and keeps what was
// sent, and to whom.
type silentWired struct {
	sent []msg.Message
	to   []ids.NodeID
}

func (s *silentWired) Send(_, to ids.NodeID, m msg.Message) {
	s.sent, s.to = append(s.sent, msg.Keep(m)), append(s.to, to)
}
func (s *silentWired) Register(ids.NodeID, netsim.Handler) {}

// oracleArrival is a pending hand-off in the station oracle.
type oracleArrival struct {
	seq                uint32
	buffered, deferred []msg.Message
}

// oracleHeld is one held result in the station oracle.
type oracleHeld struct {
	req ids.RequestID
	inc ids.Incarnation
}

// stationOracle is the per-host bookkeeping of one station as the ten
// plain maps MSSNode kept before its host table (prefs and the hand-off
// records ride along so that the handlers can be replayed), with the
// handlers written against them the way mss.go read before the change.
type stationOracle struct {
	me             ids.MSS
	w              *World
	responsible    map[ids.MH]bool
	prefs          map[ids.MH]msg.Pref
	ignoreAcks     map[ids.MH]bool
	forwardTo      map[ids.MH]ids.MSS
	routed         map[ids.MH]uint32
	seqs           map[ids.MH]uint32
	incs           map[ids.MH]ids.Incarnation
	arriving       map[ids.MH]*oracleArrival
	parked         map[ids.MH][]msg.Message
	held           map[ids.MH][]oracleHeld
	heldAcks       map[ids.MH]map[ids.RequestID]bool
	deferredUpdate map[ids.MH]bool
	nextProxySeq   uint32

	ignoredAcks, orphans, staleDrops int64
}

func newStationOracle(me ids.MSS, w *World) *stationOracle {
	o := &stationOracle{me: me, w: w}
	o.responsible, o.prefs = map[ids.MH]bool{}, map[ids.MH]msg.Pref{}
	o.ignoreAcks, o.forwardTo = map[ids.MH]bool{}, map[ids.MH]ids.MSS{}
	o.routed, o.seqs, o.incs = map[ids.MH]uint32{}, map[ids.MH]uint32{}, map[ids.MH]ids.Incarnation{}
	o.wipeVolatile()
	return o
}

func (o *stationOracle) wipeVolatile() {
	o.arriving, o.parked = map[ids.MH]*oracleArrival{}, map[ids.MH][]msg.Message{}
	o.held, o.heldAcks = map[ids.MH][]oracleHeld{}, map[ids.MH]map[ids.RequestID]bool{}
	o.deferredUpdate = map[ids.MH]bool{}
}

// crash is a station crash and journal replay: the volatile maps go, and
// of the durable ones what the journal had an entry for comes back.
func (o *stationOracle) crash() {
	o.wipeVolatile()
	journaled := func(mh ids.MH) bool {
		_, pref := o.prefs[mh]
		return o.responsible[mh] || pref || o.ignoreAcks[mh]
	}
	for mh := range o.routed {
		if !journaled(mh) {
			delete(o.routed, mh)
		}
	}
	for mh := range o.seqs {
		if !journaled(mh) {
			delete(o.seqs, mh)
		}
	}
	for mh := range o.incs {
		if !journaled(mh) {
			delete(o.incs, mh)
		}
	}
}

func (o *stationOracle) noteInc(mh ids.MH, inc ids.Incarnation) {
	if inc == 0 || !incLess(o.incs[mh], inc) {
		return
	}
	o.incs[mh] = inc
	delete(o.routed, mh)
	delete(o.seqs, mh)
	o.held[mh] = slices.DeleteFunc(o.held[mh], func(r oracleHeld) bool {
		if incLess(r.inc, inc) {
			o.staleDrops++
			return true
		}
		return false
	})
}

func (o *stationOracle) forget(mh ids.MH) {
	delete(o.responsible, mh)
	delete(o.prefs, mh)
	delete(o.held, mh)
	delete(o.heldAcks, mh)
	delete(o.deferredUpdate, mh)
	delete(o.routed, mh)
	delete(o.seqs, mh)
	delete(o.incs, mh)
}

// order compares a greet's or dereg's registration with the newest the
// oracle knows for mh: its arrival's, or the recorded one.
func (o *stationOracle) order(mh ids.MH, inc ids.Incarnation, seq uint32) int {
	known := o.seqs[mh]
	if arr := o.arriving[mh]; arr != nil {
		known = arr.seq
	}
	return cmp.Or(cmp.Compare(normInc(inc), normInc(o.incs[mh])), cmp.Compare(seq, known))
}

func (o *stationOracle) join(mh ids.MH) {
	o.responsible[mh] = true
	delete(o.ignoreAcks, mh)
	delete(o.forwardTo, mh)
	if _, ok := o.prefs[mh]; !ok {
		o.prefs[mh] = msg.Pref{}
	}
	parked := o.parked[mh]
	delete(o.parked, mh)
	for _, m := range parked {
		o.process(m)
	}
}

func (o *stationOracle) reactivate(mh ids.MH) {
	delete(o.deferredUpdate, mh)
	if o.prefs[mh].HasProxy() && len(o.held[mh]) > 0 {
		o.deferredUpdate[mh] = true
	}
	if held := o.held[mh]; len(held) > 0 {
		delete(o.held, mh)
		if o.heldAcks[mh] == nil {
			o.heldAcks[mh] = map[ids.RequestID]bool{}
		}
		for _, r := range held {
			o.heldAcks[mh][r.req] = true
		}
	}
}

func (o *stationOracle) noteHeldAck(mh ids.MH, req ids.RequestID) {
	if o.heldAcks[mh] == nil {
		return
	}
	delete(o.heldAcks[mh], req)
	if len(o.heldAcks[mh]) == 0 {
		delete(o.heldAcks, mh)
		delete(o.deferredUpdate, mh)
	}
}

func (o *stationOracle) process(m msg.Message) {
	switch m := m.(type) {
	case msg.Join:
		o.join(m.MH)
	case msg.Leave:
		o.forget(m.MH)
	case msg.Register:
		o.process(msg.Greet{MH: m.MH, OldMSS: o.me, Inc: m.Inc})
	case msg.Greet:
		order := o.order(m.MH, m.Inc, m.Seq)
		if arr := o.arriving[m.MH]; arr != nil {
			if order > 0 {
				arr.deferred = append(arr.deferred, m)
			}
			return
		}
		_, departed := o.forwardTo[m.MH]
		if order < 0 || order == 0 && departed {
			return
		}
		o.noteInc(m.MH, m.Inc)
		if !o.responsible[m.MH] && (m.OldMSS != o.me || departed) {
			o.arriving[m.MH] = &oracleArrival{seq: m.Seq, deferred: o.parked[m.MH]}
			delete(o.parked, m.MH)
			return
		}
		if !o.responsible[m.MH] {
			o.join(m.MH)
		}
		o.seqs[m.MH] = m.Seq
		o.reactivate(m.MH)
	case msg.Request:
		mh := m.Req.Origin
		if arr := o.arriving[mh]; arr != nil {
			arr.buffered = append(arr.buffered, m)
			return
		}
		if !o.responsible[mh] {
			if _, ok := o.forwardTo[mh]; !ok {
				o.orphans++
			}
			return
		}
		if incLess(m.Inc, normInc(o.incs[mh])) {
			o.staleDrops++
			return
		}
		o.noteInc(mh, m.Inc)
		pref := o.prefs[mh]
		pref.RKpR = 0
		if !pref.HasProxy() {
			o.nextProxySeq++
			pref.Proxy = ids.ProxyID{Host: o.me, Seq: o.nextProxySeq}
			o.routed[mh] = 0
		}
		o.routed[mh] = max(o.routed[mh], m.Req.Seq)
		o.prefs[mh] = pref
	case msg.AckMH:
		if arr := o.arriving[m.MH]; arr != nil {
			arr.buffered = append(arr.buffered, m)
			return
		}
		if o.ignoreAcks[m.MH] {
			o.ignoredAcks++
			return
		}
		if !o.responsible[m.MH] {
			o.orphans++
			return
		}
		pref := o.prefs[m.MH]
		if !pref.HasProxy() {
			o.orphans++
			o.noteHeldAck(m.MH, m.Req)
			return
		}
		if pref.RKpR != 0 && pref.RKpR == m.Req.Seq && !m.HaveOutstanding {
			o.prefs[m.MH] = msg.Pref{}
		}
		o.noteHeldAck(m.MH, m.Req)
	case msg.Dereg:
		if o.responsible[m.MH] {
			if o.order(m.MH, m.Inc, m.Seq) <= 0 {
				return // refused
			}
			o.forget(m.MH)
			o.ignoreAcks[m.MH] = true
			o.forwardTo[m.MH] = m.NewMSS
			o.seqs[m.MH] = m.Seq
			return
		}
		if _, ok := o.forwardTo[m.MH]; ok {
			return
		}
		if arr := o.arriving[m.MH]; arr != nil {
			arr.deferred = append(arr.deferred, m)
			return
		}
		o.parked[m.MH] = append(o.parked[m.MH], m)
	case msg.DeregAck:
		arr := o.arriving[m.MH]
		if m.Stale {
			if arr == nil || arr.seq != m.Seq {
				return
			}
			delete(o.arriving, m.MH)
			o.ignoreAcks[m.MH] = true
			o.forwardTo[m.MH] = m.Holder
			o.seqs[m.MH] = arr.seq
		} else {
			o.noteInc(m.MH, m.Inc)
			delete(o.arriving, m.MH)
			o.responsible[m.MH] = true
			delete(o.ignoreAcks, m.MH)
			delete(o.forwardTo, m.MH)
			o.prefs[m.MH] = m.Pref
			if !incLess(m.Inc, o.incs[m.MH]) {
				o.routed[m.MH] = m.Routed
			}
			if arr != nil {
				o.seqs[m.MH] = arr.seq
			}
		}
		if arr == nil {
			return
		}
		for _, b := range arr.buffered {
			o.process(b)
		}
		for _, d := range arr.deferred {
			o.process(d)
		}
	case msg.ResultForward:
		if incLess(m.Inc, normInc(o.incs[m.MH])) {
			o.staleDrops++
			return
		}
		if pref, ok := o.prefs[m.MH]; ok && m.DelPref && pref.Proxy == m.Proxy && m.Mark >= o.routed[m.MH] {
			pref.RKpR = m.Req.Seq
			o.prefs[m.MH] = pref
		}
		if o.responsible[m.MH] && o.w.InCell(m.MH, o.me) && !o.w.IsActive(m.MH) {
			o.held[m.MH] = append(o.held[m.MH], oracleHeld{req: m.Req, inc: m.Inc})
		}
	}
}

// TestStationTableAgainstMapOracle drives one station by hand through
// random histories of join / greet (from a new cell, in place, overtaken
// by its own dereg) / dereg — each greet and dereg for an older, the same
// or a newer registration — / deregack, stale ones too / request / ack /
// result forward (to an active or an inactive host) / reboot under a
// newer incarnation /
// leave / station crash and restart, with both substrates silent and the
// kernel never run, and checks after every step that the host table
// answers exactly as the plain maps would.
func TestStationTableAgainstMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { stationTableHistory(t, seed) })
	}
}

func stationTableHistory(t *testing.T, seed int64) {
	const me = ids.MSS(1)
	cfg := DefaultConfig()
	cfg.Seed, cfg.NumMSS = seed, 3
	cfg.HoldForInactive, cfg.Checkpoint = true, true
	wired := &silentWired{}
	w := NewWorldWith(sim.NewKernel(seed), cfg, wired, &silentRadio{})
	n := w.MSSs[me]
	o := newStationOracle(me, w)
	rnd := rand.New(rand.NewSource(seed))
	hosts := []ids.MH{1, 2, 3, 4}
	inc := map[ids.MH]ids.Incarnation{}
	seq := map[ids.MH]uint32{}
	reg := map[ids.MH]uint32{}            // each host's newest registration sequence
	gaveAway := map[ids.MH]msg.DeregAck{} // the station's last deregack per host
	// regSeq draws a registration sequence for mh: its newest, one before,
	// or (a new cell greeted) the next.
	regSeq := func(mh ids.MH) uint32 {
		switch rnd.Intn(3) {
		case 0:
			reg[mh]++
		case 1:
			if reg[mh] > 0 {
				return reg[mh] - 1
			}
		}
		return reg[mh]
	}
	for _, mh := range hosts {
		w.AddMH(mh, me)
		inc[mh] = ids.FirstIncarnation
	}
	for step := 0; step < 500; step++ {
		mh := hosts[rnd.Intn(len(hosts))]
		other := ids.MSS(2 + rnd.Intn(2))
		anyInc := ids.Incarnation(rnd.Intn(int(inc[mh]) + 1)) // 0 (unknown) … current
		var m msg.Message
		switch op := rnd.Intn(16); op {
		case 0:
			m = msg.Join{MH: mh}
		case 1, 2:
			m = msg.Greet{MH: mh, OldMSS: other, Inc: inc[mh], Seq: regSeq(mh)}
		case 3:
			m = msg.Greet{MH: mh, OldMSS: me, Inc: anyInc, Seq: regSeq(mh)}
		case 4:
			m = msg.Dereg{MH: mh, NewMSS: ids.MSS(1 + rnd.Intn(3)), Inc: inc[mh], Seq: regSeq(mh) + uint32(rnd.Intn(2))}
		case 5, 6:
			ack := gaveAway[mh]
			switch rnd.Intn(4) {
			case 0:
				ack = msg.DeregAck{}
			case 1:
				ack = msg.DeregAck{Stale: true, Holder: other, Seq: regSeq(mh)}
			}
			ack.MH = mh
			m = ack
		case 7, 8:
			seq[mh]++
			m = msg.Request{Req: ids.RequestID{Origin: mh, Seq: seq[mh]}, Server: 1, Payload: []byte("q"), Inc: anyInc}
		case 9, 14:
			m = msg.AckMH{MH: mh, Req: ids.RequestID{Origin: mh, Seq: uint32(1 + rnd.Intn(int(seq[mh])+1))},
				HaveOutstanding: rnd.Intn(3) == 0}
		case 10, 15:
			h := w.MHs[mh]
			h.active, h.loc = rnd.Intn(2) == 0, ids.MSS(1+rnd.Intn(4)/3)
			pref, _ := n.PrefOf(mh)
			if rnd.Intn(4) > 0 {
				anyInc = inc[mh]
			}
			m = msg.ResultForward{Proxy: pref.Proxy, MH: mh, Req: ids.RequestID{Origin: mh, Seq: uint32(1 + rnd.Intn(int(seq[mh])+1))},
				Payload: []byte("r"), DelPref: rnd.Intn(2) == 0, Mark: uint32(rnd.Intn(int(seq[mh]) + 2)), Inc: anyInc}
		case 11:
			inc[mh]++
			reg[mh] = 0
			m = msg.Register{MH: mh, Inc: inc[mh]}
		case 12:
			m = msg.Leave{MH: mh}
		case 13:
			w.CrashMSS(me)
			w.RestartMSS(me)
			o.crash()
		}
		if m != nil {
			wired.sent = wired.sent[:0]
			n.process(mh.Node(), m)
			o.process(m)
			for _, s := range wired.sent {
				if ack, ok := s.(msg.DeregAck); ok {
					gaveAway[ack.MH] = ack
				}
			}
		}
		for _, mh := range hosts {
			h := n.peek(mh)
			pref, hasPref := n.PrefOf(mh)
			wantPref, wantHasPref := o.prefs[mh]
			fwd, hasFwd := o.forwardTo[mh]
			got := fmt.Sprint(n.Responsible(mh), pref, pref.RKpR, hasPref, h.departed(), h.forwardTo, h.routed, h.seq, h.inc)
			want := fmt.Sprint(o.responsible[mh], wantPref, wantPref.RKpR, wantHasPref, o.ignoreAcks[mh], fwd, o.routed[mh], o.seqs[mh], o.incs[mh])
			if got != want || hasFwd != o.ignoreAcks[mh] {
				t.Fatalf("step %d %T %v: durable state %s, oracle %s", step, m, mh, got, want)
			}
			x := h.x
			if x == nil {
				x = &hostTransient{}
			}
			arrGot, arrWant := "none", "none"
			if arr := h.arrival(); arr != nil {
				arrGot = fmt.Sprint(arr.seq, len(arr.buffered), len(arr.deferred))
			}
			if a := o.arriving[mh]; a != nil {
				arrWant = fmt.Sprint(a.seq, len(a.buffered), len(a.deferred))
			}
			got = fmt.Sprint(arrGot, len(x.parked), len(x.held), len(x.heldAcks), x.deferredUpdate)
			want = fmt.Sprint(arrWant, len(o.parked[mh]), len(o.held[mh]), len(o.heldAcks[mh]), o.deferredUpdate[mh])
			if got != want {
				t.Fatalf("step %d %T %v: volatile state %s, oracle %s", step, m, mh, got, want)
			}
		}
		got := fmt.Sprint(w.Stats.IgnoredAcks.Value(), w.Stats.OrphanMessages.Value(), w.Stats.StaleIncarnationDrops.Value())
		if want := fmt.Sprint(o.ignoredAcks, o.orphans, o.staleDrops); got != want {
			t.Fatalf("step %d %T: ignored/orphan/stale counts %s, oracle %s", step, m, got, want)
		}
	}
	if a := &absentHost; a.x != nil || a.hostDurable != (hostDurable{}) {
		t.Errorf("the shared absent record was written: %+v", *a)
	}
	if w.Stats.Handoffs.Value() == 0 || w.Stats.HeldResults.Value() == 0 || o.ignoredAcks == 0 ||
		o.orphans == 0 || o.staleDrops == 0 {
		t.Errorf("thin history: %d hand-offs, %d held results, %d ignored acks, %d orphans, %d stale drops",
			w.Stats.Handoffs.Value(), w.Stats.HeldResults.Value(), o.ignoredAcks, o.orphans, o.staleDrops)
	}
}

// TestAttemptRecordsBounded: with refresh beacons on, the station keeps a
// delivery-attempt record only while it can still matter — the delivery
// window — and not one per result ever forwarded.
func TestAttemptRecordsBounded(t *testing.T) {
	w := quickWorld(func(c *Config) { c.GreetRefresh = 2 * time.Second })
	mh := w.AddMH(1, 1)
	const n, every = 300, 100 * time.Millisecond // window: 4 x 10 ms
	for i := 0; i < n; i++ {
		w.Schedule(time.Duration(i)*every, func() { mh.IssueRequest(1, []byte("q")) })
	}
	w.RunUntil(n*every + time.Second)
	if got := w.Stats.ResultLatency.Count(); got != n {
		t.Fatalf("%d of %d results delivered", got, n)
	}
	x := w.MSSs[1].peek(1).x
	if x == nil || len(x.attempts) == 0 || len(x.attempts) > 2 {
		t.Errorf("station holds %+v after %d delivered results, want the last window's one or two attempts", x, n)
	}
}

// journalScript builds station 1 of a silent world into every durable
// shape the journal has a record for: hosts that are responsible with
// and without a proxy, departed, rebooted, subscribed to a group proxy,
// and (volatile only) arriving, parked and holding a result; a private
// proxy with a stored result and an open, a released and an aborted
// batch; a group proxy with an acked and an un-acked waiter; a tombstone
// still owed two confirmations.
func journalScript() (*World, *MSSNode) {
	cfg := DefaultConfig()
	cfg.NumMSS, cfg.NumServers = 3, 2
	cfg.Checkpoint, cfg.HoldForInactive, cfg.AggregatedState = true, true, true
	cfg.GroupTopic = func(s ids.Server, _ []byte) (uint32, bool) { return 7, s == 2 }
	w := NewWorldWith(sim.NewKernel(1), cfg, &silentWired{}, &silentRadio{})
	n := w.MSSs[1]
	do := func(m msg.Message) { n.process(ids.MSS(2).Node(), m) }
	req := func(mh ids.MH, seq uint32) ids.RequestID { return ids.RequestID{Origin: mh, Seq: seq} }
	for mh := ids.MH(1); mh <= 5; mh++ {
		do(msg.Join{MH: mh})
	}
	do(msg.Join{MH: 8})
	// mh1: private proxy, one answered and one open request, three batches.
	do(msg.Request{Req: req(1, 1), Server: 1, Payload: []byte("a"), Inc: 1})
	do(msg.Request{Req: req(1, 2), Server: 1, Payload: []byte("b"), Inc: 1})
	pref, _ := n.PrefOf(1)
	p := n.ProxyByID(pref.Proxy)
	do(msg.ServerResult{Proxy: p.id, Req: req(1, 1), Payload: []byte("result-a")})
	open, released, aborted := ids.BatchID{Origin: 1, Seq: 1}, ids.BatchID{Origin: 1, Seq: 2}, ids.BatchID{Origin: 1, Seq: 3}
	do(msg.BatchOpen{MH: 1, Batch: open, Inc: 1})
	do(msg.BatchItem{MH: 1, Batch: open, Req: req(1, 3), Server: 1, Payload: []byte("c"), Inc: 1})
	do(msg.BatchOpen{MH: 1, Batch: released, Inc: 1})
	do(msg.BatchItem{MH: 1, Batch: released, Req: req(1, 4), Server: 1, Payload: []byte("d"), Inc: 1})
	do(msg.BatchCommit{MH: 1, Batch: released, Count: 1, Inc: 1})
	do(msg.ServerResult{Proxy: p.id, Req: req(1, 4), Payload: []byte("result-d")})
	do(msg.BatchOpen{MH: 1, Batch: aborted, Inc: 1})
	do(msg.BatchItem{MH: 1, Batch: aborted, Req: req(1, 5), Server: 1, Payload: []byte("e"), Inc: 1})
	n.markSlot(p.id.Seq) // as the deadline timer does
	p.abortBatch(p.batch(aborted))
	n.flushJournal()
	// mh3 departs; mh4 reboots twice and asks again.
	do(msg.Dereg{MH: 3, NewMSS: 2, Seq: 1})
	do(msg.Register{MH: 4, Inc: 3})
	do(msg.Request{Req: req(4, 1), Server: 1, Payload: []byte("f"), Inc: 3})
	// mh5 and mh8 share a group entry; mh5's copy is acknowledged.
	do(msg.Request{Req: req(5, 1), Server: 2, Payload: []byte("topic"), Inc: 1})
	do(msg.Request{Req: req(8, 1), Server: 2, Payload: []byte("topic"), Inc: 1})
	shared, _ := n.PrefOf(5)
	do(msg.ServerResult{Proxy: shared.Proxy, Req: req(5, 1), Payload: []byte("news")})
	do(msg.AckForward{Proxy: shared.Proxy, MH: 5, Req: req(5, 1)})
	// A migrated proxy's tombstone, two servers yet to confirm.
	t := &tombstone{host: n, oldProxy: ids.ProxyID{Host: 1, Seq: 900}, newProxy: ids.ProxyID{Host: 2, Seq: 5}, mh: 1,
		pendingServers: map[ids.Server]bool{1: true, 2: true}}
	n.put(t.oldProxy.Seq, t)
	n.flushJournal()
	// Volatile only: mh6 arriving with a buffered request, a dereg parked
	// for mh7, a result held for the inactive mh2.
	do(msg.Greet{MH: 6, OldMSS: 3, Inc: 1, Seq: 1})
	do(msg.Request{Req: req(6, 1), Server: 1, Payload: []byte("g"), Inc: 1})
	do(msg.Dereg{MH: 7, NewMSS: 3, Seq: 1})
	w.AddMH(2, 1).active = false
	do(msg.ResultForward{Proxy: ids.ProxyID{Host: 3, Seq: 1}, MH: 2, Req: req(2, 1), Payload: []byte("h"), Inc: 1})
	return w, n
}

// journalDump prints the durable half of a station deterministically.
func journalDump(n *MSSNode) string {
	var b strings.Builder
	for mh := ids.MH(1); mh <= 8; mh++ {
		pref, hasPref := n.PrefOf(mh)
		fmt.Fprintf(&b, "host %v: %v %v %v %+v\n", mh, n.Responsible(mh), pref, hasPref, n.peek(mh).hostDurable)
	}
	for _, seq := range sortedKeys(n.hosted, cmp.Compare[uint32]) {
		switch a := n.hosted[seq].(type) {
		case *Proxy:
			fmt.Fprintf(&b, "proxy %v %v %v %v\n", a.id, a.mh, a.currentLoc, a.leaseInc)
			for _, r := range a.reqs {
				fmt.Fprintf(&b, "  req %+v\n", r)
			}
			if a.group != nil {
				fmt.Fprintf(&b, "  %s\n", groupString(a.group))
			}
			for _, bt := range a.batches {
				fmt.Fprintf(&b, "  batch %+v\n", bt)
			}
		case *tombstone:
			if a.host != n {
				fmt.Fprintf(&b, "tombstone %v: host not restored\n", a.oldProxy)
			}
			t := *a
			t.host = nil
			fmt.Fprintf(&b, "tombstone %+v\n", t)
		default:
			fmt.Fprintf(&b, "%d: %T\n", seq, a)
		}
	}
	fmt.Fprintf(&b, "nextProxySeq %d topics %v\n", n.nextProxySeq, n.topicProxies)
	return b.String()
}

// TestJournalRoundTrip: crash plus journal replay gives back the durable
// half of every record exactly, leaves every volatile field zero, and
// the script costs the stable-store writes it always did.
func TestJournalRoundTrip(t *testing.T) {
	w, n := journalScript()
	const writes = 41 // 44 while every mutation wrote at once; one write per record or slot per event since
	if got := w.CheckpointWrites(); got != writes {
		t.Errorf("script made %d journal writes, want %d", got, writes)
	}
	if n.peek(6).arrival() == nil || len(n.peek(7).x.parked) != 1 || len(n.peek(2).x.held) != 1 {
		t.Fatal("fixture: the volatile state to lose is not there")
	}
	before := journalDump(n)
	for _, want := range []string{"seq:1 forwardTo:2", "inc:3}", "HasResult:true", "Released:true",
		"Aborted:true", "acked:true", "acked:false", "pendingServers:map[1:true 2:true]"} {
		if !strings.Contains(before, want) {
			t.Errorf("fixture: dump lacks %q:\n%s", want, before)
		}
	}
	w.CrashMSS(1)
	if n.Responsible(1) || len(n.hosts)+len(n.hosted)+n.nProxies+n.nReserved != 0 {
		t.Fatal("crash left memory behind")
	}
	w.RestartMSS(1)
	if after := journalDump(n); after != before {
		t.Errorf("durable state changed across crash and replay:\n--- before\n%s--- after\n%s", before, after)
	}
	for mh, h := range n.hosts {
		if h.x != nil {
			t.Errorf("%v: volatile part survived the crash: %+v", mh, h.x)
		}
	}
	for _, a := range n.hosted {
		p, ok := a.(*Proxy)
		if !ok {
			continue
		}
		if p.remoteForwards != 0 || p.migOffered || p.host != n {
			t.Errorf("proxy %v: volatile fields not reset", p.id)
		}
	}
	if n.inbox.len()+n.nReserved+len(n.aggLocBuf)+len(n.aggAckBuf)+len(n.spareTransients) != 0 {
		t.Error("station-level volatile state survived the crash")
	}
	if got := w.CheckpointWrites(); got != writes {
		t.Errorf("crash and replay made %d journal writes", got-writes)
	}
}

// --- Journal oracles ----------------------------------------------------
//
// The contract of the stable store is that between kernel events — the
// only instants a crash can strike — a station's journal holds exactly
// the durable half of its live tables. liveRecord builds, by hand, the
// journal a station ought to have from what it has in memory: the
// reference the station's own writes are held to.
func liveRecord(n *MSSNode) *stationRecord {
	rec := &stationRecord{mhs: map[ids.MH]hostJournal{}, proxies: map[uint32]*proxyImage{},
		tombstones: map[uint32]tombstone{}, nextSeq: n.nextProxySeq}
	host := func(mh ids.MH) {
		j := hostJournal{hostDurable: n.peek(mh).hostDurable}
		j.pref, j.hasPref = n.PrefOf(mh)
		// A host the station neither holds a pref of (is responsible
		// for) nor passes traffic on for is not worth an entry.
		if j.hasPref || j.departed() {
			rec.mhs[mh] = j
		}
	}
	for mh := range n.hosts {
		host(mh)
	}
	n.prefs.forEach(func(mh ids.MH, _ msg.Pref) { host(mh) })
	for seq, a := range n.hosted {
		switch a := a.(type) {
		case *Proxy:
			rec.proxies[seq] = &proxyImage{MigState: msg.MigState{Proxy: a.id, MH: a.mh, CurrentLoc: a.currentLoc,
				Mark: a.mark, MarkInc: a.markInc, LeaseInc: a.leaseInc, Reqs: a.reqs, Batches: a.batches, Floors: a.floors}, group: a.group}
		case *tombstone:
			rec.tombstones[seq] = a.clone()
		}
	}
	for _, rr := range n.reclaims {
		enc, _ := msg.Encode(rr.memo)
		rec.reclaims = journalAppend(rec.reclaims, append(binary.BigEndian.AppendUint32(nil, uint32(rr.dest)), enc...))
	}
	return rec
}

// sameRecord reports whether two journals hold the same state, timer
// epochs aside.
func sameRecord(a, b *stationRecord) bool {
	same := a.nextSeq == b.nextSeq && bytes.Equal(a.reclaims, b.reclaims) &&
		maps.EqualFunc(a.mhs, b.mhs, func(x, y hostJournal) bool {
			return x == y
		}) &&
		maps.EqualFunc(a.tombstones, b.tombstones, func(x, y tombstone) bool {
			return x.oldProxy == y.oldProxy && x.newProxy == y.newProxy && x.mh == y.mh &&
				maps.Equal(x.pendingServers, y.pendingServers)
		})
	return same && maps.EqualFunc(a.proxies, b.proxies, func(x, y *proxyImage) bool {
		return sameImage(&x.MigState, &y.MigState) && groupString(x.group) == groupString(y.group)
	})
}

// groupString prints a group proxy's extension deterministically: its
// key, members and locations, and each shared entry's member list.
func groupString(g *proxyGroup) string {
	if g == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "group %v %v %v", g.key, g.members.Members(), g.memberLoc)
	for _, req := range sortedKeys(g.waiters, func(a, b ids.RequestID) int {
		return cmp.Or(cmp.Compare(a.Origin, b.Origin), cmp.Compare(a.Seq, b.Seq))
	}) {
		ws := g.waiters[req]
		fmt.Fprintf(&b, "\n    entry %v unacked %d waiters %+v index %v entrants %v",
			req, ws.unacked, ws.list, ws.ackIdx, ws.entrants.Members())
	}
	return b.String()
}

// sameImage reports whether two proxy images hold the same state, an empty
// list and a missing one alike.
func sameImage(x, y *msg.MigState) bool {
	return x.Proxy == y.Proxy && x.NewProxy == y.NewProxy && x.MH == y.MH && x.CurrentLoc == y.CurrentLoc &&
		x.Mark == y.Mark && x.MarkInc == y.MarkInc && x.LeaseInc == y.LeaseInc &&
		slices.EqualFunc(x.Reqs, y.Reqs, func(p, q msg.ProxyReq) bool {
			return p.Req == q.Req && p.Server == q.Server && bytes.Equal(p.Payload, q.Payload) &&
				bytes.Equal(p.Result, q.Result) && p.HasResult == q.HasResult && p.Forwarded == q.Forwarded &&
				p.Batch == q.Batch && p.Inc == q.Inc
		}) && slices.Equal(x.Batches, y.Batches) && slices.Equal(x.Floors, y.Floors)
}

// imageString prints a proxy image field by field (MigState's String is the
// trace form), and a group proxy's extension of it.
func imageString(st *msg.MigState, g *proxyGroup) string {
	return fmt.Sprintf("%v->%v %v at %v mark %v/%v lease %v reqs %+v batches %+v floors %+v %s",
		st.Proxy, st.NewProxy, st.MH, st.CurrentLoc, st.Mark, st.MarkInc, st.LeaseInc, st.Reqs, st.Batches, st.Floors, groupString(g))
}

// dumpRecord prints a journal for a failure message.
func dumpRecord(rec *stationRecord) string {
	var b strings.Builder
	for _, mh := range sortedKeys(rec.mhs, cmp.Compare[ids.MH]) {
		fmt.Fprintf(&b, "host %v: %+v\n", mh, rec.mhs[mh])
	}
	for _, seq := range sortedKeys(rec.proxies, cmp.Compare[uint32]) {
		st := rec.proxies[seq]
		fmt.Fprintf(&b, "proxy %s\n", imageString(&st.MigState, st.group))
	}
	for _, seq := range sortedKeys(rec.tombstones, cmp.Compare[uint32]) {
		fmt.Fprintf(&b, "tombstone %+v\n", rec.tombstones[seq])
	}
	fmt.Fprintf(&b, "nextSeq %d, %d B of reclaim log\n", rec.nextSeq, len(rec.reclaims))
	return b.String()
}

// journalChaos schedules a short run that exercises every journaled
// shape at once on four lossy, duplicating stations: hosts 1-4 roam and
// ask server 1 through private proxies — plain requests and two-member
// batches under a deadline, with the proxies migrating after them and
// leased — hosts 5 and 6 roam and share the group proxies of server 2's
// one topic; two stations crash and restart, host 1 reboots under a new
// incarnation and host 4 dies for good.
func journalChaos(seed int64, horizon time.Duration) *World {
	cfg := recoveryConfig(seed)
	cfg.NumMSS, cfg.NumServers = 4, 2
	cfg.GreetRefresh, cfg.RequestTimeout = time.Second, 1500*time.Millisecond
	cfg.WiredLatency = netsim.Uniform{Lo: time.Millisecond, Hi: 15 * time.Millisecond}
	cfg.WirelessLatency = netsim.Constant(20 * time.Millisecond)
	cfg.ServerProc = netsim.Exponential{MeanDelay: 150 * time.Millisecond, Floor: 20 * time.Millisecond}
	cfg.Migration = proxymig.Policy{HopThreshold: 1, MinInterval: 400 * time.Millisecond, TombstoneLinger: 600 * time.Millisecond}
	cfg.LeaseTTL, cfg.BatchDeadline = 1500*time.Millisecond, 250*time.Millisecond
	cfg.HoldForInactive, cfg.AggregatedState, cfg.AggFlushDelay = true, true, 5*time.Millisecond
	cfg.GroupTopic = func(s ids.Server, _ []byte) (uint32, bool) { return 7, s == 2 }
	k := sim.NewKernel(seed)
	inj := faults.New(k, faults.Plan{
		Default: faults.LinkFaults{DropProb: 0.10, DupProb: 0.03, DelayProb: 0.10, DelayMax: 20 * time.Millisecond},
		Crashes: []faults.Crash{
			{MSS: 2, At: horizon / 4, RestartAt: horizon/4 + horizon/10},
			{MSS: 3, At: horizon / 2, RestartAt: horizon/2 + horizon/5},
		},
	})
	cfg.WiredFaults = inj
	w := NewWorldOn(k, cfg)
	inj.Schedule(w.CrashMSS, w.RestartMSS)
	w.Schedule(horizon/3, func() { w.CrashMH(1) })
	w.Schedule(horizon/3+200*time.Millisecond, func() { w.RestartMH(1) })
	w.Schedule(2*horizon/3, func() { w.CrashMH(4) })
	cells := w.StationList()
	for i := 1; i <= 6; i++ {
		id, server := ids.MH(i), ids.Server(1+i/5)
		rng := k.RNG().Fork()
		start := cells[rng.Intn(len(cells))]
		mh := w.AddMH(id, start)
		mob := workload.Mobility{
			Picker:    workload.UniformCells{Cells: cells},
			Residence: netsim.Exponential{MeanDelay: 500 * time.Millisecond, Floor: 50 * time.Millisecond},
		}
		for _, ev := range workload.Itinerary(rng, mob, start, horizon) {
			ev := ev
			w.Schedule(ev.At, func() {
				switch ev.Kind {
				case workload.EvMigrate:
					w.Migrate(id, ev.Cell)
				case workload.EvDeactivate:
					w.SetActive(id, false)
				case workload.EvActivate:
					w.SetActive(id, true)
				}
			})
		}
		reqs := workload.Requests{
			Interarrival: netsim.Exponential{MeanDelay: 250 * time.Millisecond, Floor: 10 * time.Millisecond},
			Servers:      []ids.Server{server},
			PayloadBytes: 8,
		}
		for j, a := range workload.Schedule(rng, reqs, horizon) {
			j, a := j, a
			w.Schedule(a.At, func() {
				if server == 1 && j%3 == 2 {
					if b := mh.BeginBatch(); b.Valid() {
						mh.BatchRequest(b, 1, a.Payload)
						mh.BatchRequest(b, 1, append([]byte("2"), a.Payload...))
						mh.CommitBatch(b)
					}
					return
				}
				mh.IssueRequest(server, a.Payload)
			})
		}
	}
	return w
}

// TestJournalMatchesLiveStateEveryStep: after every single kernel event
// of the chaos script, every station that is up has in its journal
// exactly the durable half of what it has in memory.
func TestJournalMatchesLiveStateEveryStep(t *testing.T) {
	const horizon = 4 * time.Second
	seen := map[string]int64{}
	for seed := int64(1); seed <= 20; seed++ {
		w := journalChaos(seed, horizon)
		k := w.kernel()
		for k.Step() && k.Now() < sim.Time(horizon) {
			for _, id := range w.StationList() {
				if w.IsDown(id) {
					continue
				}
				if live, stored := liveRecord(w.MSSs[id]), w.store.station(id); !sameRecord(live, stored) {
					t.Fatalf("seed %d step %d at %v, %v: journal differs from live state\n--- live\n%s--- journal\n%s",
						seed, k.Steps(), k.Now(), id, dumpRecord(live), dumpRecord(stored))
				}
			}
		}
		s := w.Stats
		for name, c := range map[string]*metrics.Counter{
			"hand-offs": &s.Handoffs, "migrations": &s.MigCompleted, "batches committed": &s.BatchesCommitted,
			"batches aborted": &s.BatchesAborted, "proxies reclaimed": &s.ProxiesReclaimed,
			"shared joins": &s.SharedJoins, "station restarts": &s.MSSRestarts, "results": &s.ResultsDelivered,
		} {
			seen[name] += c.Value()
		}
	}
	for name, v := range seen {
		if v == 0 {
			t.Errorf("thin script: no %s", name)
		}
	}
}

// TestCrashAtEveryBoundary: wherever between two events of the script a
// station crashes, replaying its journal gives it back the durable half
// of what it had.
func TestCrashAtEveryBoundary(t *testing.T) {
	const horizon = 1200 * time.Millisecond
	ref := journalChaos(1, horizon)
	ref.RunUntil(horizon)
	steps := ref.kernel().Steps()
	if ref.Stats.Handoffs.Value() == 0 || ref.Stats.MSSRestarts.Value() == 0 || ref.Stats.ResultsDelivered.Value() == 0 {
		t.Fatal("thin script")
	}
	for k := uint64(1); k <= steps; k++ {
		w := journalChaos(1, horizon)
		w.kernel().RunLimit(k)
		for _, id := range w.StationList() {
			if w.IsDown(id) {
				continue
			}
			n := w.MSSs[id]
			before := liveRecord(n)
			w.CrashMSS(id)
			w.RestartMSS(id)
			if after := liveRecord(n); !sameRecord(before, after) {
				t.Fatalf("crash of %v after step %d: restored state differs\n--- before\n%s--- after\n%s",
					id, k, dumpRecord(before), dumpRecord(after))
			}
		}
	}
}

// TestTransferAtEveryBoundary holds the migration path to the journal's
// oracle: after every event of the chaos script, every live proxy's image,
// sent through the codec and revived at a twin station, gives back the
// image it was — as a crash and replay must. The journal and the wire move
// the same image, so neither can drop what the other keeps.
func TestTransferAtEveryBoundary(t *testing.T) {
	const horizon = 4 * time.Second
	twin := NewWorldWith(sim.NewKernel(1), DefaultConfig(), &silentWired{}, &silentRadio{}).MSSs[1]
	var images, memos, floored int
	for seed := int64(1); seed <= 20; seed++ {
		w := journalChaos(seed, horizon)
		k := w.kernel()
		for k.Step() && k.Now() < sim.Time(horizon) {
			for _, id := range w.StationList() {
				for _, a := range w.MSSs[id].hosted {
					p, ok := a.(*Proxy)
					if !ok {
						continue
					}
					var sent, back msg.MigState
					p.image(&sent)
					enc, err := msg.Encode(sent)
					if err != nil {
						t.Fatal(err)
					}
					got, err := msg.Decode(enc)
					if err != nil {
						t.Fatalf("seed %d step %d: %v: %v", seed, k.Steps(), p.id, err)
					}
					st := got.(msg.MigState)
					twin.revive(p.id, &st, nil).image(&back)
					twin.take(p.id.Seq)
					if !sameImage(&back, &sent) {
						t.Fatalf("seed %d step %d at %v, %v: transfer changed the image\n--- sent\n%s\n--- revived\n%s",
							seed, k.Steps(), k.Now(), p.id, imageString(&sent, nil), imageString(&back, nil))
					}
					images++
					if len(sent.Floors) > 0 {
						floored++
					}
					for _, b := range sent.Batches {
						if b.Aborted {
							memos++
						}
					}
				}
			}
		}
	}
	if images == 0 || memos == 0 || floored == 0 {
		t.Errorf("thin script: %d images, %d abort memos, %d with floors", images, memos, floored)
	}
}

// journalAliasWorld is journalWorld with a batch of two members, an abort
// memo and a floor on the proxy, journaled: every slice an image owns is
// in use.
func journalAliasWorld(t *testing.T) (n *MSSNode, seq uint32, p *Proxy, stored *stationRecord) {
	n, seq = journalWorld(t)
	p = n.proxyAt(seq)
	p.floors = []msg.BatchFloor{{MH: 1, Seq: 1, Inc: 1}}
	p.openBatch(msg.ProxyBatch{Batch: ids.BatchID{Origin: 1, Seq: 1}, Inc: 1})
	p.openBatch(msg.ProxyBatch{Batch: ids.BatchID{Origin: 1, Seq: 9}, Aborted: true})
	p.reqs[0].Batch, p.reqs[1].Batch = p.batches[0].Batch, p.batches[0].Batch
	n.markSlot(seq)
	n.flushJournal()
	return n, seq, p, n.w.store.station(n.id)
}

// TestJournalImageOutOfLiveReach: the journal writes an image over the one
// it stored before, into the same arrays — so those arrays must be the
// store's alone. Whatever an event does to the live tables afterwards,
// the stored image does not move until the next flush; and that flush,
// overwriting in place, reproduces the live state again.
func TestJournalImageOutOfLiveReach(t *testing.T) {
	n, seq, p, stored := journalAliasWorld(t)
	all := p.reqs
	for round := 0; round < 3; round++ { // the second and third rounds scribble over reused arrays
		before := dumpRecord(stored)
		h := n.entry(1)
		h.routed++
		h.inc++
		p.currentLoc, p.leaseInc, p.mark = 2, p.leaseInc+1, p.mark+1
		p.reqs[0].HasResult, p.reqs[0].Result = true, []byte{byte(round)}
		all[0], all[1] = all[1], all[0]
		p.reqs = all[:2+round%2] // the image shrinks, then grows back
		b, memo := &p.batches[0], &p.batches[1]
		b.Committed = !b.Committed
		memo.Batch.Seq++
		p.floors[0].Seq++
		p.floors = append(p.floors, msg.BatchFloor{MH: ids.MH(50 + round), Inc: 1})
		if after := dumpRecord(stored); after != before {
			t.Fatalf("round %d: live writes reached the stored image:\n--- before\n%s--- after\n%s", round, before, after)
		}
		n.markHost(1)
		n.markSlot(seq)
		n.flushJournal()
		if live := liveRecord(n); !sameRecord(live, stored) {
			t.Fatalf("round %d: journal differs from live state after the flush:\n--- live\n%s--- journal\n%s",
				round, dumpRecord(live), dumpRecord(stored))
		}
	}
}

// TestRestoredStateOutOfJournalReach: the other direction. A restart
// clones out of the store, so overwriting the stored images in place —
// by hand here, by the next flush in service — leaves what was restored
// from them alone.
func TestRestoredStateOutOfJournalReach(t *testing.T) {
	n, seq, _, stored := journalAliasWorld(t)
	n.w.CrashMSS(1)
	n.w.RestartMSS(1)
	restored := dumpRecord(liveRecord(n))
	pr := stored.proxies[seq]
	pr.Reqs[0].Req.Seq, pr.Reqs[1].HasResult = 99, true
	pr.Batches[0].Expected, pr.Batches[0].Released = 98, true
	pr.Batches[1].Batch.Seq, pr.Floors[0].Seq = 97, 96
	if now := dumpRecord(liveRecord(n)); now != restored {
		t.Fatalf("writes to the stored images reached the restored state:\n--- restored\n%s--- now\n%s", restored, now)
	}
	// The next flush writes over the scribbled arrays, and gets them right.
	n.markHost(1)
	n.markSlot(seq)
	n.flushJournal()
	if now := dumpRecord(liveRecord(n)); now != restored || !sameRecord(liveRecord(n), stored) {
		t.Fatalf("flush after restart: live state moved or journal differs:\n--- restored\n%s--- live\n%s--- journal\n%s",
			restored, now, dumpRecord(stored))
	}
}

// doorWorld builds station 1 of a silent three-station world with one
// proxy identity answered by the named sort of addressee (or by nothing,
// or belonging to another station) and returns that identity with the
// host the messages for it speak of.
func doorWorld(t *testing.T, slot string) (*World, *MSSNode, *silentWired, ids.ProxyID, ids.MH) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumMSS, cfg.NumServers = 3, 2
	cfg.Checkpoint, cfg.AggregatedState = true, true
	cfg.GroupTopic = func(s ids.Server, _ []byte) (uint32, bool) { return 7, s == 2 }
	wired := &silentWired{}
	w := NewWorldWith(sim.NewKernel(1), cfg, wired, &silentRadio{})
	n := w.MSSs[1]
	up := func(mh ids.MH, m msg.Message) { n.process(mh.Node(), m) }
	req := func(mh ids.MH, seq uint32) ids.RequestID { return ids.RequestID{Origin: mh, Seq: seq} }
	var id ids.ProxyID
	mh := ids.MH(1)
	switch slot {
	case "private", "foreign":
		// Two open requests and an open batch.
		up(1, msg.Join{MH: 1})
		up(1, msg.Request{Req: req(1, 1), Server: 1, Payload: []byte("a"), Inc: 1})
		up(1, msg.Request{Req: req(1, 2), Server: 1, Payload: []byte("b"), Inc: 1})
		up(1, msg.BatchOpen{MH: 1, Batch: ids.BatchID{Origin: 1, Seq: 1}, Inc: 1})
		pref, _ := n.PrefOf(1)
		id = pref.Proxy
		if slot == "foreign" {
			id.Host = 2
		}
	case "group":
		// One entry fanned out to mh5 and not yet acknowledged, one still
		// waiting for the server (its leader is request 2 of mh5 below).
		mh = 5
		up(5, msg.Join{MH: 5})
		up(5, msg.Request{Req: req(5, 1), Server: 2, Payload: []byte("topic"), Inc: 1})
		up(5, msg.Request{Req: req(5, 2), Server: 2, Payload: []byte("other"), Inc: 1})
		pref, _ := n.PrefOf(5)
		id = pref.Proxy
		n.process(ids.Server(2).Node(), msg.ServerResult{Proxy: id, Req: req(5, 1), Payload: []byte("news")})
	case "tombstone":
		id = ids.ProxyID{Host: 1, Seq: 900}
		n.put(id.Seq, &tombstone{host: n, oldProxy: id, newProxy: ids.ProxyID{Host: 2, Seq: 5}, mh: 1,
			pendingServers: map[ids.Server]bool{}})
	case "reservation":
		id = ids.ProxyID{Host: 1, Seq: 901}
		n.put(id.Seq, &migReservation{oldProxy: ids.ProxyID{Host: 2, Seq: 4}})
	case "empty":
		id = ids.ProxyID{Host: 1, Seq: 77}
	}
	if isSharedProxy(id) != (slot == "group") || w.Stats.OrphanMessages.Value()+w.Stats.Violations.Value() != 0 {
		t.Fatalf("fixture %s: identity %v, %d orphans, %d violations", slot, id,
			w.Stats.OrphanMessages.Value(), w.Stats.Violations.Value())
	}
	wired.sent, wired.to = nil, nil
	return w, n, wired, id, mh
}

// doorMessages is one message of every proxy-addressed kind for id, each
// of which changes the state of a doorWorld addressee that takes its
// kind: mh is the host they speak of, whose request 2 is still open.
func doorMessages(id ids.ProxyID, mh ids.MH) []msg.ProxyAddressed {
	var one aggstate.Set
	one.Add(uint32(mh))
	b1 := ids.BatchID{Origin: mh, Seq: 1}
	req := func(seq uint32) ids.RequestID { return ids.RequestID{Origin: mh, Seq: seq} }
	return []msg.ProxyAddressed{
		msg.RequestForward{Proxy: id, Req: req(7), Server: 2, Payload: []byte("topic"), Inc: 1},
		msg.UpdateCurrentLoc{Proxy: id, MH: mh, NewLoc: 3},
		msg.AckForward{Proxy: id, MH: mh, Req: req(1)},
		msg.ServerResult{Proxy: id, Req: req(2), Payload: []byte("r")},
		msg.LeaseHeartbeat{Proxy: id, MH: mh, Inc: 2},
		msg.BatchOpen{Proxy: id, MH: mh, Batch: ids.BatchID{Origin: mh, Seq: 2}, Inc: 1},
		msg.BatchItem{Proxy: id, MH: mh, Batch: b1, Req: req(8), Server: 1, Payload: []byte("c"), Inc: 1},
		msg.BatchCommit{Proxy: id, MH: mh, Batch: b1, Count: 5, Inc: 1},
		msg.GroupUpdateLoc{Proxy: id, NewLoc: 3, Members: one.AppendDelta(nil)},
		msg.GroupAckForward{Proxy: id, Members: one.AppendDelta(nil), Seqs: []uint32{1}},
	}
}

// journaled renders what the journal holds for a proxy identity: every
// handled message changes it, since proxies write through.
func journaled(w *World, id ids.ProxyID) string {
	if st := w.store.station(1).proxies[id.Seq]; st != nil {
		return imageString(&st.MigState, st.group)
	}
	return ""
}

// TestOneDoor sends a message of every proxy-addressed kind, from a
// remote station, to an identity answered by each sort of addressee, by
// nothing, and by another station. A private or group proxy handles the
// kinds it takes — a private one no group signaling, a group one no lease
// heartbeat — and counts the others as orphans; a tombstone sends the
// message after the proxy under the new identity and tells the sender; a
// reservation holds it until the mig_state installs the proxy, which then
// gets it; an empty slot or a foreign identity is one orphan.
func TestOneDoor(t *testing.T) {
	from := ids.MSS(3).Node()
	takes := map[string][]bool{ // by doorMessages index
		"private": {true, true, true, true, true, true, true, true, false, false},
		"group":   {true, true, true, true, false, true, true, true, true, true},
	}
	for _, slot := range []string{"private", "group", "tombstone", "reservation", "empty", "foreign"} {
		for k := range doorMessages(ids.NoProxy, 1) {
			w, n, wired, id, mh := doorWorld(t, slot)
			m := doorMessages(id, mh)[k]
			name := fmt.Sprintf("%s/%T", slot, m)
			before := journaled(w, id)
			n.process(from, m)
			orphans, changed := w.Stats.OrphanMessages.Value(), journaled(w, id) != before
			switch slot {
			case "private", "group":
				if taken := takes[slot][k]; taken != (orphans == 0) || taken != changed {
					t.Errorf("%s: taken %v, but %d orphans, state changed %v", name, taken, orphans, changed)
				}
			case "tombstone":
				ts := n.hosted[id.Seq].(*tombstone)
				want := []msg.Message{m.WithProxy(ts.newProxy), msg.PrefRedirect{MH: 1, OldProxy: id, NewProxy: ts.newProxy}}
				if fmt.Sprint(wired.sent, wired.to) != fmt.Sprint(want, []ids.NodeID{ids.MSS(2).Node(), from}) ||
					orphans != 0 || ts.gcEpoch != 1 {
					t.Errorf("%s: sent %v to %v, %d orphans, quiet period armed %d times",
						name, wired.sent, wired.to, orphans, ts.gcEpoch)
				}
				if got := wired.sent[0].(msg.ProxyAddressed); got.Kind() != m.Kind() || got.ProxyID() != ts.newProxy {
					t.Errorf("%s: redirected as %v", name, got)
				}
			case "reservation":
				res := n.hosted[id.Seq].(*migReservation)
				if len(res.buffered) != 1 || orphans != 0 || len(wired.sent) != 0 {
					t.Fatalf("%s: %d held, %d orphans, sent %v", name, len(res.buffered), orphans, wired.sent)
				}
				// The proxy of the private fixture arrives; a twin station
				// that held nothing gives the state without the replay.
				st := msg.MigState{Proxy: res.oldProxy, NewProxy: id, MH: 1, CurrentLoc: 2,
					Reqs: []msg.ProxyReq{
						{Req: ids.RequestID{Origin: 1, Seq: 1}, Server: 1, Payload: []byte("a"), Inc: 1},
						{Req: ids.RequestID{Origin: 1, Seq: 2}, Server: 1, Payload: []byte("b"), Inc: 1}},
					Batches: []msg.ProxyBatch{{Batch: ids.BatchID{Origin: 1, Seq: 1}, Inc: 1}},
					Floors:  []msg.BatchFloor{{MH: 1, Inc: 1}}}
				w2, n2, _, _, _ := doorWorld(t, slot)
				n.process(ids.MSS(2).Node(), st)
				n2.process(ids.MSS(2).Node(), st)
				orphans, changed = w.Stats.OrphanMessages.Value(), journaled(w, id) != journaled(w2, id)
				if taken := takes["private"][k]; taken != (orphans == 0) || taken != changed || n.nReserved != 0 {
					t.Errorf("%s: replay taken %v, but %d orphans, state changed %v, %d reservations left",
						name, taken, orphans, changed, n.nReserved)
				}
			default:
				if orphans != 1 || changed || len(wired.sent) != 0 {
					t.Errorf("%s: %d orphans, state changed %v, sent %v", name, orphans, changed, wired.sent)
				}
			}
			if v := w.Stats.Violations.Value(); v != 0 {
				t.Errorf("%s: %d violations", name, v)
			}
		}
	}
}

// TestBatchOfGroupMemberTakenOnTheSpot: a host bound to a group proxy of
// its own station has its batch taken by that proxy in the event that
// carries its batch traffic — not after a wired send from the station to
// itself: the batch opens and commits, and its member goes to the server,
// the one wired send.
func TestBatchOfGroupMemberTakenOnTheSpot(t *testing.T) {
	w, n, wired, id, mh := doorWorld(t, "group")
	b := ids.BatchID{Origin: mh, Seq: 1}
	member := ids.RequestID{Origin: mh, Seq: 3}
	for _, m := range []msg.Message{
		msg.BatchOpen{MH: mh, Batch: b, Inc: 1},
		msg.BatchItem{MH: mh, Batch: b, Req: member, Server: 1, Payload: []byte("q"), Inc: 1},
		msg.BatchCommit{MH: mh, Batch: b, Count: 1, Inc: 1},
	} {
		n.process(mh.Node(), m)
	}
	if got := w.Stats.OrphanMessages.Value(); got != 0 || w.Stats.Violations.Value() != 0 {
		t.Errorf("%d orphans, %d violations; want the batch taken", got, w.Stats.Violations.Value())
	}
	p := n.ProxyByID(id)
	if bt := p.batch(b); bt == nil || !bt.Committed || p.req(member) == nil || w.Stats.BatchesCommitted.Value() != 1 {
		t.Errorf("batch %+v, member %v; want the batch committed at the group proxy", bt, p.req(member))
	}
	want := fmt.Sprint([]msg.Message{msg.ServerRequest{Proxy: id, Req: member, Payload: []byte("q")}}, []ids.NodeID{ids.Server(1).Node()})
	if got := fmt.Sprint(wired.sent, wired.to); got != want {
		t.Errorf("sent %s, want %s", got, want)
	}
}

// TestDeliveryWindowARQSlack: the ARQ's share of the delivery window is
// twice the backoff cap in effect — also when the config leaves the cap
// at its default.
func TestDeliveryWindowARQSlack(t *testing.T) {
	for _, c := range []struct {
		arq  netsim.ARQConfig
		want time.Duration
	}{
		{netsim.ARQConfig{}, 40 * time.Millisecond},
		{netsim.ARQConfig{Enabled: true}, 40*time.Millisecond + 2*2*time.Second},
		{netsim.ARQConfig{Enabled: true, MaxBackoff: 250 * time.Millisecond}, 540 * time.Millisecond},
	} {
		w := quickWorld(func(cfg *Config) { cfg.GreetRefresh, cfg.WiredARQ = 2*time.Second, c.arq })
		if got := time.Duration(w.MSSs[1].deliveryWindow()); got != c.want {
			t.Errorf("%+v: delivery window %v, want %v", c.arq, got, c.want)
		}
	}
}
