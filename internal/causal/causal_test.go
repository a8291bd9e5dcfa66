package causal

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// harness wires a group of endpoints to an in-test "network" in which
// the test controls arrival order explicitly.
type harness struct {
	eps       []*Endpoint
	delivered [][]any // per destination, in delivery order
}

func newHarness(n int) *harness {
	h := &harness{delivered: make([][]any, n)}
	h.eps = Group(n, func(dst int, payload any) {
		h.delivered[dst] = append(h.delivered[dst], payload)
	})
	return h
}

// inFlight is a message on the wire.
type inFlight struct {
	st      Stamp
	dst     int
	payload any
}

func (h *harness) send(from, to int, payload any) inFlight {
	return inFlight{st: h.eps[from].Send(to), dst: to, payload: payload}
}

func (h *harness) arrive(m inFlight) {
	h.eps[m.dst].Receive(m.st, m.payload)
}

func TestDirectDependencyHeldBack(t *testing.T) {
	// P0 sends m1 to P2, then m2 to P1; P1 delivers m2 and sends m3 to
	// P2. m3 causally follows m1 (via P0's send order? No — m1 -> m2 is
	// program order at P0, m2 -> m3 is deliver-then-send at P1, so
	// m1 -> m3). If m3 arrives at P2 before m1, it must be buffered.
	h := newHarness(3)
	m1 := h.send(0, 2, "m1")
	m2 := h.send(0, 1, "m2")
	h.arrive(m2)
	m3 := h.send(1, 2, "m3")

	h.arrive(m3) // out of causal order
	if got := len(h.delivered[2]); got != 0 {
		t.Fatalf("m3 delivered before its causal predecessor m1 (delivered=%v)", h.delivered[2])
	}
	if h.eps[2].Queued() != 1 {
		t.Fatalf("Queued = %d, want 1", h.eps[2].Queued())
	}
	h.arrive(m1)
	want := []any{"m1", "m3"}
	if len(h.delivered[2]) != 2 || h.delivered[2][0] != want[0] || h.delivered[2][1] != want[1] {
		t.Fatalf("delivery order = %v, want %v", h.delivered[2], want)
	}
}

func TestFIFOBetweenPair(t *testing.T) {
	// Two messages from the same sender to the same receiver are causally
	// ordered; reversing arrival must not reverse delivery.
	h := newHarness(2)
	a := h.send(0, 1, "a")
	b := h.send(0, 1, "b")
	h.arrive(b)
	if len(h.delivered[1]) != 0 {
		t.Fatal("second message delivered before first")
	}
	h.arrive(a)
	if len(h.delivered[1]) != 2 || h.delivered[1][0] != "a" || h.delivered[1][1] != "b" {
		t.Fatalf("delivery order = %v", h.delivered[1])
	}
}

func TestConcurrentMessagesDeliverInArrivalOrder(t *testing.T) {
	// P0 and P1 send to P2 with no causal relation; arrival order rules.
	h := newHarness(3)
	a := h.send(0, 2, "a")
	b := h.send(1, 2, "b")
	h.arrive(b)
	h.arrive(a)
	if len(h.delivered[2]) != 2 || h.delivered[2][0] != "b" || h.delivered[2][1] != "a" {
		t.Fatalf("delivery order = %v, want [b a]", h.delivered[2])
	}
}

func TestPaperHandoffScenario(t *testing.T) {
	// The exactly-once argument of §5:
	//   send(Ack)@MssO -> send(Ack,del-proxy)@MssO -> send(update_currl)@MssN
	// The proxy host must deliver the forwarded Ack before the
	// update_currentLoc even if the update arrives first.
	//
	// Processes: 0 = MssO, 1 = MssN, 2 = MssP (proxy host).
	h := newHarness(3)
	ack := h.send(0, 2, "ack-fwd")         // MssO forwards the MH's ack to the proxy
	dereg := h.send(0, 1, "deregack")      // then completes hand-off with MssN
	h.arrive(dereg)                        // MssN learns of the hand-off...
	update := h.send(1, 2, "update-currl") // ...and updates the proxy

	h.arrive(update) // network delivers update first
	h.arrive(ack)
	got := h.delivered[2]
	if len(got) != 2 || got[0] != "ack-fwd" || got[1] != "update-currl" {
		t.Fatalf("proxy delivery order = %v, want [ack-fwd update-currl]", got)
	}
}

func TestSendToSelfPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range destination must panic")
		}
	}()
	h := newHarness(2)
	h.eps[0].Send(5)
}

// causalPred records, for a randomized run, which messages causally
// precede which, so the property test can verify delivery respects it.
func TestRandomizedCausalOrderProperty(t *testing.T) {
	const (
		nodes  = 5
		nMsgs  = 300
		trials = 30
	)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		h := newHarness(nodes)

		type sentMsg struct {
			id   int
			vc   []uint64 // Lamport vector timestamp of the send event
			dst  int
			wire inFlight
		}

		// Shadow vector clocks track ground-truth causality independently
		// of the implementation under test.
		vcs := make([][]uint64, nodes)
		for i := range vcs {
			vcs[i] = make([]uint64, nodes)
		}
		tick := func(i int) []uint64 {
			vcs[i][i]++
			c := make([]uint64, nodes)
			copy(c, vcs[i])
			return c
		}
		merge := func(i int, v []uint64) {
			for k := range v {
				if v[k] > vcs[i][k] {
					vcs[i][k] = v[k]
				}
			}
		}
		leq := func(a, b []uint64) bool {
			for k := range a {
				if a[k] > b[k] {
					return false
				}
			}
			return true
		}

		var wire []sentMsg
		sentVC := make(map[int][]uint64)
		deliveredOrder := make(map[int][]int) // per-destination message ids
		h2 := &harness{delivered: make([][]any, nodes)}
		h2.eps = Group(nodes, func(dst int, payload any) {
			id := payload.(int)
			deliveredOrder[dst] = append(deliveredOrder[dst], id)
			merge(dst, sentVC[id])
			vcs[dst][dst]++
		})
		h = h2

		nextID := 0
		for len(wire) > 0 || nextID < nMsgs {
			// Randomly either send a new message or deliver one in flight.
			if nextID < nMsgs && (len(wire) == 0 || rng.Intn(2) == 0) {
				from := rng.Intn(nodes)
				to := rng.Intn(nodes)
				for to == from {
					to = rng.Intn(nodes)
				}
				vc := tick(from)
				m := sentMsg{id: nextID, vc: vc, dst: to, wire: h.send(from, to, nextID)}
				sentVC[nextID] = vc
				nextID++
				wire = append(wire, m)
				continue
			}
			i := rng.Intn(len(wire))
			m := wire[i]
			wire = append(wire[:i], wire[i+1:]...)
			h.arrive(m.wire)
		}

		// All messages must eventually be delivered (reliability).
		total := 0
		for _, order := range deliveredOrder {
			total += len(order)
		}
		if total != nMsgs {
			t.Fatalf("trial %d: delivered %d of %d messages", trial, total, nMsgs)
		}

		// Causal order: if send(a) -> send(b) and same destination, a is
		// delivered before b.
		for dst, order := range deliveredOrder {
			pos := make(map[int]int, len(order))
			for p, id := range order {
				pos[id] = p
			}
			for _, a := range order {
				for _, b := range order {
					if a == b {
						continue
					}
					if leq(sentVC[a], sentVC[b]) && !leq(sentVC[b], sentVC[a]) {
						if pos[a] > pos[b] {
							t.Fatalf("trial %d dst %d: causal order violated: %d delivered after %d", trial, dst, a, b)
						}
					}
				}
			}
		}
	}
}

// benchSizes are the group widths the causal micro-benches sweep, so the
// per-message cost's growth with n shows (DESIGN §10, the causal layer): 54 is the
// benchmark's region, 1024 is past E16's 984-wide group.
var benchSizes = []int{16, 54, 256, 1024}

func benchSendReceive(b *testing.B, pooled bool) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			eps := Group(n, func(int, any) {}, Pooled(pooled))
			var payload any = struct{}{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				from := i % n
				to := (i + 1) % n
				eps[to].Receive(eps[from].Send(to), payload)
			}
		})
	}
}

func BenchmarkCausalSendReceive(b *testing.B) { benchSendReceive(b, false) }

// BenchmarkCausalSendReceivePooled is the pooled counterpart: steady-state
// stamp traffic with recycled stamp vectors.
func BenchmarkCausalSendReceivePooled(b *testing.B) { benchSendReceive(b, true) }

// TestPooledSteadyStateAllocatesNothing is the allocation budget of the
// wired substrate's configuration: at the benchmark's region width a
// pooled Send plus its in-order Receive costs no allocation once the
// free lists have warmed up.
func TestPooledSteadyStateAllocatesNothing(t *testing.T) {
	const n = 54
	eps := Group(n, func(int, any) {}, Pooled(true))
	var payload any = struct{}{}
	i := 0
	step := func() {
		from := i % n
		to := (i*7 + 1) % n
		eps[to].Receive(eps[from].Send(to), payload)
		i++
	}
	for i < 20*n {
		step()
	}
	if avg := testing.AllocsPerRun(2000, step); avg != 0 {
		t.Errorf("pooled Send+Receive = %v allocs/op in steady state, want 0", avg)
	}
}

// TestHeldBackBurstAllocBudget pins the send logs' storage: a channel's
// ring grows only when a burst held back on it runs past the deepest one
// before, so steady traffic with bursts up to that depth — pooled, like
// the wired substrate — allocates nothing, and a deeper burst grows the
// ring once.
func TestHeldBackBurstAllocBudget(t *testing.T) {
	const n, depth = 54, 16
	eps := Group(n, func(int, any) {}, Pooled(true))
	var payload any = struct{}{}
	burst := make([]Stamp, 0, 2*depth)
	// Process 0 sends d messages to 1 that arrive newest first: all but
	// the last arrival are held back, then the oldest releases them all.
	step := func(d int) {
		burst = burst[:0]
		for range d {
			burst = append(burst, eps[0].Send(1))
		}
		for i := d - 1; i >= 0; i-- {
			eps[1].Receive(burst[i], payload)
		}
		for from := 2; from < n; from++ { // steady traffic around it
			to := (from*7 + 1) % n
			eps[to].Receive(eps[from].Send(to), payload)
		}
	}
	for range 4 {
		step(depth)
	}
	ring := len(eps[1].in[0].ring)
	if ring < depth || ring >= 2*depth {
		t.Fatalf("after bursts of %d the channel's ring holds %d", depth, ring)
	}
	if avg := testing.AllocsPerRun(200, func() { step(depth) }); avg != 0 {
		t.Errorf("a burst within the high-water mark = %v allocs, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { step(depth / 2) }); avg != 0 {
		t.Errorf("a shallower burst = %v allocs, want 0", avg)
	}
	step(depth + 1)
	if got := len(eps[1].in[0].ring); got != 2*ring {
		t.Errorf("a burst past the high-water mark left a ring of %d, want %d", got, 2*ring)
	}
	if q := eps[1].Queued(); q != 0 {
		t.Errorf("%d messages still held back after the bursts", q)
	}
}

// groupHeapLimit is what Group(984) — E16's top tier — may take on the
// heap: 1.1 times the 24.4 MB it took when a matrix was n references to
// shared rows (n zero rows plus n references and n counts per endpoint).
// warmHeapLimit is the same for the group after e16Traffic: 1.1 times
// the row engine's 104.7 MB.
const (
	groupHeapLimit = 1.1 * 24.4e6
	warmHeapLimit  = 1.1 * 104.7e6
)

// e16Traffic sends and delivers one message over every channel of a
// backbone shaped like E16's: the last 8 endpoints are servers, the rest
// stations; every station sends to every server and to its two ring
// neighbours (hand-offs), every server to every station and every other
// server.
func e16Traffic(eps []*Endpoint) {
	const servers = 8
	n := len(eps)
	stations := n - servers
	var payload any = struct{}{}
	send := func(from, to int) { eps[to].Receive(eps[from].Send(to), payload) }
	for s := range stations {
		for v := stations; v < n; v++ {
			send(s, v)
			send(v, s)
		}
		send(s, (s+1)%stations)
		send(s, (s+stations-1)%stations)
	}
	for a := stations; a < n; a++ {
		for b := stations; b < n; b++ {
			if a != b {
				send(a, b)
			}
		}
	}
}

// TestGroupFootprint holds Group(984) to groupHeapLimit fresh, where an
// endpoint owns two n-word vectors, and to warmHeapLimit after
// e16Traffic, where every endpoint that has heard from another also owns
// its n channel pointers and every channel used its log and ring.
func TestGroupFootprint(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	eps := Group(984, func(int, any) {})
	fresh := float64(heap()) - float64(before)
	e16Traffic(eps)
	warm := float64(heap()) - float64(before)
	runtime.KeepAlive(eps)
	t.Logf("Group(984): %.1f MB on the heap fresh, %.1f MB after E16-shaped traffic", fresh/1e6, warm/1e6)
	if fresh > groupHeapLimit {
		t.Errorf("a fresh Group(984) takes %.1f MB, want at most %.1f MB", fresh/1e6, groupHeapLimit/1e6)
	}
	if warm > warmHeapLimit {
		t.Errorf("Group(984) after E16-shaped traffic takes %.1f MB, want at most %.1f MB", warm/1e6, warmHeapLimit/1e6)
	}
}

// TestStampWireRoundTrip sends a stamp through its wire form: the parsed
// copy must be held back and released exactly like the original.
func TestStampWireRoundTrip(t *testing.T) {
	h := newHarness(3)
	m1 := h.send(0, 2, "m1")
	m2 := h.send(0, 1, "m2")
	h.arrive(m2)
	m3 := h.send(1, 2, "m3")

	wire := m3.st.AppendBinary(nil)
	if want := 8 + 3*8; len(wire) != want {
		t.Fatalf("wire form is %d bytes, want %d", len(wire), want)
	}
	parsed, err := h.eps[2].ParseStamp(wire)
	if err != nil {
		t.Fatalf("ParseStamp: %v", err)
	}
	if again := parsed.AppendBinary(nil); !bytes.Equal(again, wire) {
		t.Fatalf("re-encoding differs:\n first  %x\n second %x", wire, again)
	}
	h.eps[2].Receive(parsed, "m3")
	if len(h.delivered[2]) != 0 {
		t.Fatalf("parsed stamp lost its dependency: delivered %v", h.delivered[2])
	}
	h.arrive(m1)
	if got := h.delivered[2]; len(got) != 2 || got[0] != "m1" || got[1] != "m3" {
		t.Fatalf("delivery order = %v, want [m1 m3]", got)
	}
}

// TestParseStampRejectsWrongShape pins the remote-crash fix: a stamp
// that is well-formed for some other group size, is not well-formed at
// all, or names a send its owner has not made is an error — it never
// reaches Receive's indexing or a send log.
func TestParseStampRejectsWrongShape(t *testing.T) {
	wireFor := func(n int) []byte {
		return Group(n, func(int, any) {})[0].Send(n - 1).AppendBinary(nil)
	}
	eps := Group(3, func(int, any) {})
	good := eps[0].Send(2).AppendBinary(nil)
	badSender := append([]byte(nil), good...)
	badSender[3] = 3
	unsent := append([]byte(nil), good...)
	unsent[8+7]++ // process 0's second send, not yet made
	cases := map[string][]byte{
		"empty":             nil,
		"short header":      good[:7],
		"smaller group":     wireFor(1),
		"larger group":      wireFor(4),
		"truncated body":    good[:len(good)-1],
		"trailing byte":     append(append([]byte(nil), good...), 0),
		"sender past group": badSender,
		"unsent version":    unsent,
		"another group":     Group(3, func(int, any) {})[1].Send(2).AppendBinary(nil),
	}
	for name, b := range cases {
		if _, err := eps[2].ParseStamp(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := eps[2].ParseStamp(good); err != nil {
		t.Errorf("well-formed stamp rejected: %v", err)
	}
}

// TestReceiveRejectsForeignStamp: a stamp from a group of another size
// is a programming error, reported by name rather than as an index out
// of range.
func TestReceiveRejectsForeignStamp(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("stamp from a 1-wide group accepted by a 3-wide one")
		}
	}()
	foreign := Group(1, func(int, any) {})[0].Send(0)
	Group(3, func(int, any) {})[0].Receive(foreign, nil)
}

func TestSelfSendDoesNotWedgeOtherSenders(t *testing.T) {
	// Regression for a double count found by the adversarial explorer: a
	// process sending to itself must not inflate sent[i][i], or every
	// later message from other senders (whose stamps merge the inflated
	// count) blocks forever.
	h := newHarness(2)
	// P1 sends to itself twice and delivers both.
	s1 := h.send(1, 1, "self-a")
	h.arrive(s1)
	s2 := h.send(1, 1, "self-b")
	h.arrive(s2)
	if len(h.delivered[1]) != 2 {
		t.Fatalf("self deliveries = %d, want 2", len(h.delivered[1]))
	}
	// P1 tells P0 about its state; P0's later message to P1 must still
	// be deliverable.
	toP0 := h.send(1, 0, "state")
	h.arrive(toP0)
	fromP0 := h.send(0, 1, "hello")
	h.arrive(fromP0)
	if len(h.delivered[1]) != 3 || h.delivered[1][2] != "hello" {
		t.Fatalf("message from P0 wedged: delivered=%v queued=%d", h.delivered[1], h.eps[1].Queued())
	}
}

func TestIndexReportsPosition(t *testing.T) {
	h := newHarness(4)
	for i, ep := range h.eps {
		if ep.Index() != i {
			t.Errorf("endpoint %d reports Index %d", i, ep.Index())
		}
	}
}

func TestQueuedPayloadsDiagnostics(t *testing.T) {
	// Same shape as TestDirectDependencyHeldBack; while m3 is blocked the
	// diagnostics must name the missing predecessor's sender (P0) and the
	// shortfall (1 message).
	h := newHarness(3)
	m1 := h.send(0, 2, "m1")
	m2 := h.send(0, 1, "m2")
	h.arrive(m2)
	m3 := h.send(1, 2, "m3")
	h.arrive(m3)

	infos := h.eps[2].QueuedPayloads()
	if len(infos) != 1 {
		t.Fatalf("QueuedPayloads = %d entries, want 1", len(infos))
	}
	info := infos[0]
	if info.From != 1 || info.Payload != "m3" {
		t.Errorf("blocked message = from %d payload %v, want from 1 payload m3", info.From, info.Payload)
	}
	if len(info.BlockedOn) != 1 || info.BlockedOn[0] != 0 {
		t.Errorf("BlockedOn = %v, want [0]", info.BlockedOn)
	}
	if len(info.Missing) != 1 || info.Missing[0] != 1 {
		t.Errorf("Missing = %v, want [1]", info.Missing)
	}

	h.arrive(m1)
	if got := h.eps[2].QueuedPayloads(); len(got) != 0 {
		t.Errorf("QueuedPayloads after unblocking = %v, want empty", got)
	}
}
