package causal

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// The property-based suite drives random concurrent histories through
// the endpoints with an adversarial (arbitrarily reordering) transport
// and checks what the protocol stack depends on:
//
//  1. equivalence — every endpoint delivers, and holds back, exactly
//     what the textbook dense-matrix RST below does on the same history,
//     self-sends and stamps that never arrive included (and, unpooled,
//     stamps that arrive twice — up to the point where the dense model
//     itself leaves the ground, see TestDuplicatedDeliveriesMatchDenseRST);
//  2. safety — the delivery order at every process never violates
//     happens-before among sends, judged against vector clocks the test
//     maintains independently of either implementation;
//  3. liveness — once every in-flight message has arrived, no endpoint
//     still buffers anything;
//  4. log audit — every channel's send log holds exactly the sends its
//     receiver has not delivered, oldest first, and its head is the one
//     the receiver tests against (so a drained group holds none); with
//     recycling on, nothing on a free list is still referenced.
//
// Each history runs pooled and unpooled and must deliver the identical
// sequences.

// denseRST is the reference model: Raynal–Schiper–Toueg as published,
// every process holding a full n×n SENT matrix, every stamp a snapshot
// of it taken before the send, every delivery an n×n maximum. It is the
// engine this package used to run and exists only here, as the oracle.
type denseRST struct {
	n     int
	sent  [][][]uint64 // sent[i]: process i's SENT matrix
	deliv [][]uint64
	buf   [][]densePending // per process, in arrival order
	out   [][]any          // per process, delivered payloads in order

	// sends[i][k] counts what i really sent to k. overcounted is set once
	// a process stamps a message with more sends to the destination than
	// it has made — possible only after duplicated deliveries.
	sends       [][]uint64
	overcounted bool
}

type denseStamp struct {
	from int
	sent [][]uint64
}

type densePending struct {
	st      denseStamp
	payload any
}

func denseMatrix(n int) [][]uint64 {
	m := make([][]uint64, n)
	for i := range m {
		m[i] = make([]uint64, n)
	}
	return m
}

func newDenseRST(n int) *denseRST {
	o := &denseRST{n: n, buf: make([][]densePending, n), out: make([][]any, n)}
	for i := 0; i < n; i++ {
		o.sent = append(o.sent, denseMatrix(n))
		o.deliv = append(o.deliv, make([]uint64, n))
		o.sends = append(o.sends, make([]uint64, n))
	}
	return o
}

func (o *denseRST) send(src, dst int) denseStamp {
	snap := denseMatrix(o.n)
	for i := range snap {
		copy(snap[i], o.sent[src][i])
	}
	if snap[src][dst] != o.sends[src][dst] {
		o.overcounted = true
	}
	o.sends[src][dst]++
	o.sent[src][src][dst]++
	return denseStamp{from: src, sent: snap}
}

// blocked lists the senders whose messages me must still deliver before
// st, and how many of each.
func (o *denseRST) blocked(me int, st denseStamp) (on []int, missing []uint64) {
	for k := 0; k < o.n; k++ {
		if want := st.sent[k][me]; o.deliv[me][k] < want {
			on, missing = append(on, k), append(missing, want-o.deliv[me][k])
		}
	}
	return on, missing
}

func (o *denseRST) receive(me int, st denseStamp, payload any) {
	o.buf[me] = append(o.buf[me], densePending{st, payload})
	for again := true; again; {
		again = false
		for i, p := range o.buf[me] { // arrival order breaks ties
			if on, _ := o.blocked(me, p.st); on != nil {
				continue
			}
			o.buf[me] = append(o.buf[me][:i], o.buf[me][i+1:]...)
			o.deliv[me][p.st.from]++
			for a := range p.st.sent {
				for b, v := range p.st.sent[a] {
					o.sent[me][a][b] = max(o.sent[me][a][b], v)
				}
			}
			if p.st.from != me {
				o.sent[me][p.st.from][me]++
			}
			o.out[me] = append(o.out[me], p.payload)
			again = true
			break
		}
	}
}

// queued is the oracle's QueuedPayloads.
func (o *denseRST) queued(me int) []QueuedInfo {
	out := make([]QueuedInfo, 0, len(o.buf[me]))
	for _, p := range o.buf[me] {
		on, missing := o.blocked(me, p.st)
		out = append(out, QueuedInfo{From: p.st.from, Payload: p.payload, BlockedOn: on, Missing: missing})
	}
	return out
}

// propOp is one step of a generated history. The script is fixed before
// any engine runs, so every engine sees the same sends and arrivals.
type propOp struct {
	kind propKind
	id   int // message: ids count sends from 0
	src  int
	dst  int
}

type propKind int

const (
	opSend   propKind = iota
	opArrive          // the message reaches its destination and leaves the wire
	opDup             // it reaches its destination and stays on the wire
	opDrop            // it leaves the wire without ever arriving
)

type propShape struct {
	n, ops      int
	drops, dups bool
}

// genHistory scripts a random history: sends between random processes
// (self-sends included) interleaved with arrivals in arbitrary order,
// optionally losing or duplicating some, then everything still on the
// wire arrives.
func genHistory(rng *rand.Rand, sh propShape) []propOp {
	var script []propOp
	var wire []propOp // the sends still in flight
	sends := 0
	take := func(i int) propOp {
		m := wire[i]
		wire[i] = wire[len(wire)-1]
		wire = wire[:len(wire)-1]
		return m
	}
	for len(script) < sh.ops {
		if len(wire) > 0 && rng.Intn(100) < 40 {
			i := rng.Intn(len(wire))
			switch roll := rng.Intn(100); {
			case sh.dups && roll < 15:
				m := wire[i]
				m.kind = opDup
				script = append(script, m)
			case sh.drops && roll >= 95:
				m := take(i)
				m.kind = opDrop
				script = append(script, m)
			default:
				m := take(i)
				m.kind = opArrive
				script = append(script, m)
			}
			continue
		}
		m := propOp{kind: opSend, id: sends, src: rng.Intn(sh.n), dst: rng.Intn(sh.n)}
		sends++
		script = append(script, m)
		wire = append(wire, m)
	}
	for len(wire) > 0 {
		m := take(rng.Intn(len(wire)))
		m.kind = opArrive
		script = append(script, m)
	}
	return script
}

// propRun replays a script through a group and through the oracle in
// lockstep, comparing the receiver's hold-back queue after every
// arrival and every delivery sequence at the end. It returns the
// per-process delivery orders and each message's vector clock at send
// time (the test-side truth for the safety check). A history with
// duplicates ends early if the oracle overcounts (see
// TestDuplicatedDeliveriesMatchDenseRST); dupsCompared is how many
// duplicated arrivals were checked before that.
func propRun(t *testing.T, sh propShape, script []propOp, pooled bool) (delivered [][]int, sendVC [][]uint64, dupsCompared int) {
	t.Helper()
	n := sh.n
	delivered = make([][]int, n)
	vcs := make([][]uint64, n)
	for i := range vcs {
		vcs[i] = make([]uint64, n)
	}
	var dstOf []int
	var verOf []uint64              // the sender's version, i.e. which of its sends each message is
	chanSends := make([][]int, n*n) // chanSends[k*n+j]: the ids sent k→j, in send order
	done := make(map[int]bool)      // ids delivered
	eps := Group(n, func(dst int, payload any) {
		id := payload.(int)
		if dstOf[id] != dst {
			t.Fatalf("message %d for %d delivered to %d", id, dstOf[id], dst)
		}
		done[id] = true
		delivered[dst] = append(delivered[dst], id)
		// Receiving extends the destination's causal past.
		for k, v := range sendVC[id] {
			vcs[dst][k] = max(vcs[dst][k], v)
		}
	}, Pooled(pooled))
	oracle := newDenseRST(n)

	var stamps []Stamp
	var oracleStamps []denseStamp
	onWire := make(map[int]bool)
	audit := func() {
		var inFlight []Stamp // stamps outside any buffer that may still arrive
		for id := range onWire {
			inFlight = append(inFlight, stamps[id])
		}
		checkLogs(t, eps, inFlight, func(k, j int) []uint64 {
			var vers []uint64
			for _, id := range chanSends[k*n+j] {
				if !done[id] {
					vers = append(vers, verOf[id])
				}
			}
			return vers
		})
	}
	for step, op := range script {
		switch op.kind {
		case opSend:
			vcs[op.src][op.src]++
			sendVC = append(sendVC, append([]uint64(nil), vcs[op.src]...))
			dstOf = append(dstOf, op.dst)
			stamps = append(stamps, eps[op.src].Send(op.dst))
			verOf = append(verOf, stamps[op.id].vers[op.src])
			chanSends[op.src*n+op.dst] = append(chanSends[op.src*n+op.dst], op.id)
			oracleStamps = append(oracleStamps, oracle.send(op.src, op.dst))
			onWire[op.id] = true
		case opArrive, opDup:
			if op.kind == opArrive {
				delete(onWire, op.id)
			} else {
				dupsCompared++
			}
			eps[op.dst].Receive(stamps[op.id], op.id)
			oracle.receive(op.dst, oracleStamps[op.id], op.id)
			if got, want := eps[op.dst].QueuedPayloads(), oracle.queued(op.dst); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d (%+v): process %d holds back\n  %+v\nthe dense RST holds back\n  %+v", step, op, op.dst, got, want)
			}
		case opDrop:
			// A dropped send stays in its channel's log for good, and
			// its stamp in onWire: its vector never reaches a free list.
		}
		if oracle.overcounted {
			if !sh.dups {
				t.Fatalf("step %d (%+v): the dense RST overcounted without a duplicate", step, op)
			}
			break
		}
		if !sh.dups && step%64 == 0 {
			audit()
		}
	}
	for p := range delivered {
		want := make([]int, len(oracle.out[p]))
		for i, v := range oracle.out[p] {
			want[i] = v.(int)
		}
		if !reflect.DeepEqual(append([]int{}, delivered[p]...), want) {
			t.Fatalf("process %d delivered %v, the dense RST %v", p, delivered[p], want)
		}
	}
	if !sh.drops && !oracle.overcounted {
		for i, ep := range eps {
			if q := ep.Queued(); q != 0 {
				t.Fatalf("pooled=%v: endpoint %d still buffers %d messages after full arrival", pooled, i, q)
			}
		}
	}
	if !sh.dups {
		audit()
	}
	return delivered, sendVC, dupsCompared
}

// logOf returns channel k→e's send log, oldest first.
func logOf(e *Endpoint, k int) []uint64 {
	var vers []uint64
	if e.in != nil && e.in[k] != nil {
		for i := range e.in[k].n {
			vers = append(vers, e.in[k].at(i))
		}
	}
	return vers
}

// checkLogs audits a group's bookkeeping: every channel k→j's log holds
// exactly want(k, j), the versions of the sends j has not delivered, in
// send order, with no credit, and j tests against its head; in a pooled
// group no vector on the free list belongs to a buffered or in-flight
// stamp (or is listed twice).
func checkLogs(t *testing.T, eps []*Endpoint, inFlight []Stamp, want func(k, j int) []uint64) {
	t.Helper()
	for j, e := range eps {
		for k := range eps {
			got, w := logOf(e, k), want(k, j)
			if !slices.Equal(got, w) {
				t.Fatalf("channel %d→%d logs %v, its undelivered sends are %v", k, j, got, w)
			}
			head := uint64(none)
			if len(w) > 0 {
				head = w[0]
			}
			if e.next[k] != head {
				t.Fatalf("channel %d→%d: endpoint %d tests against %d, the log's head is %v", k, j, j, e.next[k], w)
			}
			if e.in != nil && e.in[k] != nil && e.in[k].credit != 0 {
				t.Fatalf("channel %d→%d: %d deliveries past its sends without a duplicate", k, j, e.in[k].credit)
			}
		}
	}
	g := eps[0].g
	if !g.pooled {
		return
	}
	vecs := make(map[*uint64]string) // a vector is identified by its first slot
	hold := func(who string, st Stamp) {
		if prev, dup := vecs[&st.vers[0]]; dup {
			t.Fatalf("pool: %s and %s share one version vector", prev, who)
		}
		vecs[&st.vers[0]] = who
	}
	for i, e := range eps {
		for _, p := range e.buffer {
			hold(fmt.Sprintf("a message buffered at %d", i), p.st)
		}
	}
	for _, st := range inFlight {
		hold("a stamp in flight", st)
	}
	for _, v := range g.vecs {
		if who, used := vecs[&v[0]]; used {
			t.Fatalf("pool: free version vector also belongs to %s", who)
		}
		vecs[&v[0]] = "the free list"
	}
}

// checkHappensBefore asserts no process delivered b before a when
// send(a) → send(b) under the test's vector clocks.
func checkHappensBefore(t *testing.T, delivered [][]int, sendVC [][]uint64) {
	t.Helper()
	before := func(a, b int) bool { // send(a) → send(b)
		if a == b {
			return false
		}
		for k := range sendVC[a] {
			if sendVC[a][k] > sendVC[b][k] {
				return false
			}
		}
		return true
	}
	for p, order := range delivered {
		for i := 0; i < len(order); i++ {
			for j := i + 1; j < len(order); j++ {
				if before(order[j], order[i]) {
					t.Fatalf("process %d delivered %d before %d despite send(%d) → send(%d)",
						p, order[i], order[j], order[j], order[i])
				}
			}
		}
	}
}

// propCheck runs one scripted history pooled and unpooled (each against
// the oracle) and checks safety and that pooling changes nothing.
func propCheck(t *testing.T, seed int64, sh propShape) {
	t.Helper()
	script := genHistory(rand.New(rand.NewSource(seed)), sh)
	plain, sendVC, _ := propRun(t, sh, script, false)
	pooled, _, _ := propRun(t, sh, script, true)
	checkHappensBefore(t, plain, sendVC)
	if !reflect.DeepEqual(plain, pooled) {
		t.Fatalf("pooling changed the delivery order:\n pooled   %v\n unpooled %v", pooled, plain)
	}
}

func TestCausalDeliveryProperties(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			propCheck(t, seed, propShape{
				n:     2 + rng.Intn(7),
				ops:   150 + rng.Intn(100),
				drops: seed%3 == 0, // every third history loses stamps for good
			})
		})
	}
	// One history at a width where a stamp spans several cache lines and
	// most channels carry a send or two.
	t.Run("n64", func(t *testing.T) {
		propCheck(t, 64, propShape{n: 64, ops: 3000, drops: true})
	})
}

// TestDuplicatedDeliveriesMatchDenseRST covers the transports that can
// hand one stamp to Receive twice (a duplicating link with no ARQ
// below). Unpooled only: recycling requires at-most-once delivery.
//
// On a duplicate the dense RST inflates DELIV[from] and its own
// SENT[from][me] together; here the versions stay exact and only DELIV
// inflates (the duplicate retires the channel's oldest undelivered send,
// or, with none left, becomes credit against the next). Column me of anybody's matrix is tested at me alone, and an
// inflated cell never exceeds the DELIV that inflated it, so wherever
// the inflated cell travels the two engines take the same decisions —
// with one exception. When the inflated SENT[j][k] travels back to j
// and exceeds what j has sent, the dense j adopts it as its own count
// and stamps its next message to k as the (sends+dups+1)-th; the
// versions keep counting sends. From there the dense model happens to
// hold back a reordered successor that the versions release early (both have given k
// credit for messages it never got; the dense one takes it back by
// accident). A duplicate below the causal layer is outside assumption 1
// either way — nothing in the repo runs causal order over a duplicating
// link except this test — so the history is compared up to the first
// such overcounted stamp and no further.
func TestDuplicatedDeliveriesMatchDenseRST(t *testing.T) {
	dups := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sh := propShape{n: 2 + rng.Intn(7), ops: 200 + rng.Intn(100), drops: seed%2 == 0, dups: true}
		_, _, d := propRun(t, sh, genHistory(rng, sh), false)
		dups += d
	}
	if dups < 200 {
		t.Fatalf("only %d duplicated arrivals were compared; the histories overcount too early to mean anything", dups)
	}
}
