package netsim

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
)

func staticMembers() []ids.NodeID {
	return []ids.NodeID{
		ids.MSS(1).Node(), ids.MSS(2).Node(), ids.MSS(3).Node(), ids.Server(1).Node(),
	}
}

type record struct {
	from ids.NodeID
	m    msg.Message
}

func collector(dst *[]record) Handler {
	return HandlerFunc(func(from ids.NodeID, m msg.Message) {
		*dst = append(*dst, record{from: from, m: msg.Keep(m)})
	})
}

func TestWiredDelivers(t *testing.T) {
	k := sim.NewKernel(1)
	w := NewWired(k, staticMembers(), WiredConfig{Latency: Constant(10 * time.Millisecond), Causal: true}, nil)
	var got []record
	for _, n := range staticMembers() {
		n := n
		if n == ids.MSS(2).Node() {
			w.Register(n, collector(&got))
		} else {
			w.Register(n, HandlerFunc(func(ids.NodeID, msg.Message) {}))
		}
	}
	w.Send(ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Dereg{MH: 7, NewMSS: 2})
	k.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(got))
	}
	if got[0].from != ids.MSS(1).Node() {
		t.Errorf("from = %v, want mss1", got[0].from)
	}
	if _, ok := got[0].m.(msg.Dereg); !ok {
		t.Errorf("message type = %T, want Dereg", got[0].m)
	}
	if k.Now() != sim.Time(10*time.Millisecond) {
		t.Errorf("delivery time = %v, want 10ms", k.Now())
	}
}

func TestWiredCausalOrderAcrossHosts(t *testing.T) {
	// mss1 sends A to mss3, then B to mss2; mss2 sends C to mss3 after
	// receiving B. Even though C's path (1->2->3) can be faster than A's
	// direct path under the chosen latencies, mss3 must get A before C.
	k := sim.NewKernel(1)
	// Adversarial deterministic latency: first send is slow, rest fast.
	lat := &scriptedLatency{delays: []time.Duration{
		50 * time.Millisecond, // A: mss1 -> mss3 (slow)
		1 * time.Millisecond,  // B: mss1 -> mss2
		1 * time.Millisecond,  // C: mss2 -> mss3
	}}
	w := NewWired(k, staticMembers(), WiredConfig{Latency: lat, Causal: true}, nil)
	var at3 []record
	w.Register(ids.MSS(3).Node(), collector(&at3))
	w.Register(ids.MSS(1).Node(), HandlerFunc(func(ids.NodeID, msg.Message) {}))
	w.Register(ids.Server(1).Node(), HandlerFunc(func(ids.NodeID, msg.Message) {}))
	w.Register(ids.MSS(2).Node(), HandlerFunc(func(from ids.NodeID, m msg.Message) {
		w.Send(ids.MSS(2).Node(), ids.MSS(3).Node(), msg.Join{MH: 99}) // C
	}))

	w.Send(ids.MSS(1).Node(), ids.MSS(3).Node(), msg.Join{MH: 1}) // A
	w.Send(ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Join{MH: 2}) // B
	k.Run()

	if len(at3) != 2 {
		t.Fatalf("mss3 received %d messages, want 2", len(at3))
	}
	if at3[0].m.(msg.Join).MH != 1 || at3[1].m.(msg.Join).MH != 99 {
		t.Fatalf("causal order violated at mss3: %v then %v", at3[0].m, at3[1].m)
	}
}

func TestWiredWithoutCausalReordersAblation(t *testing.T) {
	// Identical scenario with Causal: false must deliver C before A —
	// this is the reordering the E2 ablation depends on observing.
	k := sim.NewKernel(1)
	lat := &scriptedLatency{delays: []time.Duration{
		50 * time.Millisecond,
		1 * time.Millisecond,
		1 * time.Millisecond,
	}}
	w := NewWired(k, staticMembers(), WiredConfig{Latency: lat, Causal: false}, nil)
	var at3 []record
	w.Register(ids.MSS(3).Node(), collector(&at3))
	w.Register(ids.MSS(1).Node(), HandlerFunc(func(ids.NodeID, msg.Message) {}))
	w.Register(ids.Server(1).Node(), HandlerFunc(func(ids.NodeID, msg.Message) {}))
	w.Register(ids.MSS(2).Node(), HandlerFunc(func(from ids.NodeID, m msg.Message) {
		w.Send(ids.MSS(2).Node(), ids.MSS(3).Node(), msg.Join{MH: 99})
	}))
	w.Send(ids.MSS(1).Node(), ids.MSS(3).Node(), msg.Join{MH: 1})
	w.Send(ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Join{MH: 2})
	k.Run()
	if len(at3) != 2 {
		t.Fatalf("mss3 received %d messages, want 2", len(at3))
	}
	if at3[0].m.(msg.Join).MH != 99 {
		t.Fatalf("without causal layer, fast path should win: got %v first", at3[0].m)
	}
}

// scriptedLatency returns pre-programmed delays in sequence, then zero.
type scriptedLatency struct {
	delays []time.Duration
	i      int
}

func (s *scriptedLatency) Sample(*sim.RNG) time.Duration {
	if s.i < len(s.delays) {
		d := s.delays[s.i]
		s.i++
		return d
	}
	return 0
}

func (s *scriptedLatency) Mean() time.Duration { return 0 }

func TestWiredPanicsOnNonMember(t *testing.T) {
	k := sim.NewKernel(1)
	w := NewWired(k, staticMembers(), WiredConfig{}, nil)
	defer func() {
		if recover() == nil {
			t.Error("send from non-member must panic")
		}
	}()
	w.Send(ids.MSS(9).Node(), ids.MSS(1).Node(), msg.Join{MH: 1})
}

func TestWiredRejectsMobileMember(t *testing.T) {
	k := sim.NewKernel(1)
	defer func() {
		if recover() == nil {
			t.Error("MH as wired member must panic")
		}
	}()
	NewWired(k, []ids.NodeID{ids.MH(1).Node()}, WiredConfig{}, nil)
}

// world is a minimal reachability oracle for wireless tests.
type world struct {
	loc    map[ids.MH]ids.MSS
	active map[ids.MH]bool
}

func (w *world) reachable(mss ids.MSS, mh ids.MH) bool {
	return w.loc[mh] == mss && w.active[mh]
}

func TestWirelessDownlinkDelivery(t *testing.T) {
	k := sim.NewKernel(1)
	wd := &world{loc: map[ids.MH]ids.MSS{7: 1}, active: map[ids.MH]bool{7: true}}
	w := NewWireless(k, WirelessConfig{Latency: Constant(time.Millisecond), Reachable: wd.reachable}, nil)
	var got []record
	w.RegisterMH(7, collector(&got))
	w.SendDownlink(1, 7, msg.ResultDeliver{Req: ids.RequestID{Origin: 7, Seq: 1}})
	k.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d, want 1", len(got))
	}
}

func TestWirelessDownlinkLostWhenMigratedMidFlight(t *testing.T) {
	k := sim.NewKernel(1)
	wd := &world{loc: map[ids.MH]ids.MSS{7: 1}, active: map[ids.MH]bool{7: true}}
	var events []EventKind
	obs := func(at sim.Time, l Layer, kind EventKind, from, to ids.NodeID, m msg.Message) {
		if l == LayerWireless {
			events = append(events, kind)
		}
	}
	w := NewWireless(k, WirelessConfig{Latency: Constant(10 * time.Millisecond), Reachable: wd.reachable}, obs)
	var got []record
	w.RegisterMH(7, collector(&got))
	w.SendDownlink(1, 7, msg.ResultDeliver{})
	// The MH migrates to cell 2 while the frame is in flight.
	k.Defer(5*time.Millisecond, func() { wd.loc[7] = 2 })
	k.Run()
	if len(got) != 0 {
		t.Fatal("frame delivered despite mid-flight migration")
	}
	if len(events) != 2 || events[1] != EventDroppedUnreachable {
		t.Fatalf("events = %v, want [sent dropped-unreachable]", events)
	}
}

func TestWirelessDownlinkLostWhenInactive(t *testing.T) {
	k := sim.NewKernel(1)
	wd := &world{loc: map[ids.MH]ids.MSS{7: 1}, active: map[ids.MH]bool{7: false}}
	w := NewWireless(k, WirelessConfig{Reachable: wd.reachable}, nil)
	var got []record
	w.RegisterMH(7, collector(&got))
	w.SendDownlink(1, 7, msg.ResultDeliver{})
	k.Run()
	if len(got) != 0 {
		t.Fatal("frame delivered to inactive MH")
	}
}

func TestWirelessRandomLoss(t *testing.T) {
	k := sim.NewKernel(42)
	wd := &world{loc: map[ids.MH]ids.MSS{7: 1}, active: map[ids.MH]bool{7: true}}
	w := NewWireless(k, WirelessConfig{LossProb: 0.5, Reachable: wd.reachable}, nil)
	delivered := 0
	w.RegisterMH(7, HandlerFunc(func(ids.NodeID, msg.Message) { delivered++ }))
	const n = 10000
	for i := 0; i < n; i++ {
		w.SendDownlink(1, 7, msg.ResultDeliver{})
	}
	k.Run()
	frac := float64(delivered) / n
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("delivery fraction = %.3f, want ~0.5", frac)
	}
}

func TestWirelessUplink(t *testing.T) {
	k := sim.NewKernel(1)
	wd := &world{loc: map[ids.MH]ids.MSS{7: 1}, active: map[ids.MH]bool{7: true}}
	w := NewWireless(k, WirelessConfig{Latency: Constant(time.Millisecond), Reachable: wd.reachable}, nil)
	var got []record
	w.RegisterMSS(1, collector(&got))
	w.SendUplink(7, 1, msg.Request{Req: ids.RequestID{Origin: 7, Seq: 1}, Server: 1})
	// Uplink to a station whose cell the MH does not occupy is lost.
	w.SendUplink(7, 2, msg.Request{Req: ids.RequestID{Origin: 7, Seq: 2}, Server: 1})
	k.Run()
	if len(got) != 1 {
		t.Fatalf("station received %d, want 1", len(got))
	}
}

func TestObserverSeesWiredTraffic(t *testing.T) {
	k := sim.NewKernel(1)
	var kinds []EventKind
	obs := func(at sim.Time, l Layer, kind EventKind, from, to ids.NodeID, m msg.Message) {
		kinds = append(kinds, kind)
	}
	w := NewWired(k, staticMembers(), WiredConfig{Causal: true}, obs)
	for _, n := range staticMembers() {
		w.Register(n, HandlerFunc(func(ids.NodeID, msg.Message) {}))
	}
	w.Send(ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Join{MH: 1})
	k.Run()
	if len(kinds) != 2 || kinds[0] != EventSent || kinds[1] != EventDelivered {
		t.Fatalf("observer events = %v, want [sent delivered]", kinds)
	}
}

func TestLatencyModels(t *testing.T) {
	rng := sim.NewRNG(1)
	if Constant(5*time.Millisecond).Sample(rng) != 5*time.Millisecond {
		t.Error("Constant.Sample")
	}
	if Constant(5*time.Millisecond).Mean() != 5*time.Millisecond {
		t.Error("Constant.Mean")
	}
	u := Uniform{Lo: time.Millisecond, Hi: 3 * time.Millisecond}
	for i := 0; i < 100; i++ {
		d := u.Sample(rng)
		if d < u.Lo || d > u.Hi {
			t.Fatalf("Uniform.Sample = %v out of range", d)
		}
	}
	if u.Mean() != 2*time.Millisecond {
		t.Error("Uniform.Mean")
	}
	e := Exponential{MeanDelay: 10 * time.Millisecond, Floor: 2 * time.Millisecond}
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		d := e.Sample(rng)
		if d < e.Floor {
			t.Fatalf("Exponential.Sample = %v below floor", d)
		}
		sum += d
	}
	mean := float64(sum) / n
	if mean < 0.9*float64(e.MeanDelay) || mean > 1.1*float64(e.MeanDelay) {
		t.Errorf("Exponential mean = %v, want ~%v", time.Duration(mean), e.MeanDelay)
	}
	if e.Mean() != 10*time.Millisecond {
		t.Error("Exponential.Mean")
	}
	if (Exponential{MeanDelay: time.Millisecond, Floor: 5 * time.Millisecond}).Mean() != 5*time.Millisecond {
		t.Error("Exponential.Mean floor clamp")
	}
}

func TestWirelessPerLinkFIFO(t *testing.T) {
	// Frames on one directed radio link never overtake each other, even
	// under high-variance latency draws: a single radio channel delivers
	// in order, and the protocol depends on it (a request must not reach
	// a station before the greet announcing its sender).
	k := sim.NewKernel(9)
	wd := &world{loc: map[ids.MH]ids.MSS{7: 1}, active: map[ids.MH]bool{7: true}}
	w := NewWireless(k, WirelessConfig{
		Latency:   Uniform{Lo: time.Millisecond, Hi: 50 * time.Millisecond},
		Reachable: wd.reachable,
	}, nil)
	var order []uint32
	w.RegisterMSS(1, HandlerFunc(func(_ ids.NodeID, m msg.Message) {
		order = append(order, msg.Keep(m).(msg.Request).Req.Seq)
	}))
	const n = 200
	for i := uint32(1); i <= n; i++ {
		i := i
		// Stagger sends a little so draws overlap adversarially.
		k.Defer(time.Duration(i)*100*time.Microsecond, func() {
			w.SendUplink(7, 1, msg.Request{Req: ids.RequestID{Origin: 7, Seq: i}})
		})
	}
	k.Run()
	if len(order) != n {
		t.Fatalf("delivered %d of %d", len(order), n)
	}
	for i, seq := range order {
		if seq != uint32(i+1) {
			t.Fatalf("frame %d delivered out of order (seq %d)", i, seq)
		}
	}
}

func TestWirelessFIFOIndependentLinks(t *testing.T) {
	// Different links are NOT synchronized: a frame to one station may
	// overtake an earlier frame to another — the reordering the hand-off
	// chain machinery exists to absorb.
	k := sim.NewKernel(3)
	wd := &world{loc: map[ids.MH]ids.MSS{7: 1}, active: map[ids.MH]bool{7: true}}
	// First frame slow, second fast.
	lat := &scriptedLatency{delays: []time.Duration{40 * time.Millisecond, time.Millisecond}}
	w := NewWireless(k, WirelessConfig{Latency: lat, Reachable: func(ids.MSS, ids.MH) bool { return true }}, nil)
	var got []ids.MSS
	for _, id := range []ids.MSS{1, 2} {
		id := id
		w.RegisterMSS(id, HandlerFunc(func(ids.NodeID, msg.Message) { got = append(got, id) }))
	}
	w.SendUplink(7, 1, msg.Join{MH: 7})
	w.SendUplink(7, 2, msg.Join{MH: 7})
	k.Run()
	_ = wd
	if len(got) != 2 || got[0] != 2 {
		t.Fatalf("expected the fast cross-link frame to win: %v", got)
	}
}

func TestLayerAndEventStrings(t *testing.T) {
	if LayerWired.String() != "wired" || LayerWireless.String() != "wireless" {
		t.Error("Layer names wrong")
	}
	if EventSent.String() != "sent" || EventDelivered.String() != "delivered" || EventDropped.String() != "dropped" {
		t.Error("EventKind names wrong")
	}
}

func TestMeanLatencyExposure(t *testing.T) {
	k := sim.NewKernel(1)
	w := NewWired(k, staticMembers(), WiredConfig{Latency: Constant(5 * time.Millisecond)}, nil)
	if got := w.MeanLatency(); got != 5*time.Millisecond {
		t.Errorf("wired MeanLatency = %v", got)
	}
	wd := &world{loc: map[ids.MH]ids.MSS{}, active: map[ids.MH]bool{}}
	wl := NewWireless(k, WirelessConfig{Latency: Constant(20 * time.Millisecond), Reachable: wd.reachable}, nil)
	if got := wl.MeanLatency(); got != 20*time.Millisecond {
		t.Errorf("wireless MeanLatency = %v", got)
	}
}

func TestRegisterUnknownMemberPanics(t *testing.T) {
	k := sim.NewKernel(1)
	w := NewWired(k, staticMembers(), WiredConfig{}, nil)
	defer func() {
		if recover() == nil {
			t.Error("registering a non-member must panic")
		}
	}()
	w.Register(ids.MSS(99).Node(), HandlerFunc(func(ids.NodeID, msg.Message) {}))
}

func TestWiredDuplicateMemberPanics(t *testing.T) {
	k := sim.NewKernel(1)
	defer func() {
		if recover() == nil {
			t.Error("duplicate member must panic")
		}
	}()
	NewWired(k, []ids.NodeID{ids.MSS(1).Node(), ids.MSS(1).Node()}, WiredConfig{}, nil)
}

func TestWiredSendToUnregisteredHandlerPanics(t *testing.T) {
	k := sim.NewKernel(1)
	w := NewWired(k, staticMembers(), WiredConfig{}, nil)
	w.Send(ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Join{MH: 1})
	defer func() {
		if recover() == nil {
			t.Error("delivery to an unregistered member must panic")
		}
	}()
	k.Run()
}

func TestExponentialFloorExceedsMean(t *testing.T) {
	rng := sim.NewRNG(4)
	e := Exponential{MeanDelay: time.Millisecond, Floor: 10 * time.Millisecond}
	for i := 0; i < 50; i++ {
		if d := e.Sample(rng); d < 10*time.Millisecond {
			t.Fatalf("sample %v below floor", d)
		}
	}
}

func TestPairLatencyOverridesDefault(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := WiredConfig{
		Latency:     Constant(100 * time.Millisecond), // fallback (server links)
		PairLatency: RingLatency(3, 2*time.Millisecond, 3*time.Millisecond),
	}
	w := NewWired(k, staticMembers(), cfg, nil)
	var arrivals []sim.Time
	for _, n := range staticMembers() {
		n := n
		w.Register(n, HandlerFunc(func(ids.NodeID, msg.Message) { arrivals = append(arrivals, k.Now()) }))
	}
	w.Send(ids.MSS(1).Node(), ids.MSS(2).Node(), msg.Join{MH: 1})    // distance 1: 5ms
	w.Send(ids.MSS(1).Node(), ids.MSS(3).Node(), msg.Join{MH: 2})    // ring distance 1: 5ms
	w.Send(ids.MSS(1).Node(), ids.Server(1).Node(), msg.Join{MH: 3}) // fallback: 100ms
	k.Run()
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %d, want 3", len(arrivals))
	}
	if arrivals[0] != sim.Time(5*time.Millisecond) || arrivals[1] != sim.Time(5*time.Millisecond) {
		t.Errorf("station-pair arrivals = %v, want 5ms each", arrivals[:2])
	}
	if arrivals[2] != sim.Time(100*time.Millisecond) {
		t.Errorf("server arrival = %v, want fallback 100ms", arrivals[2])
	}
}

func TestRingLatencyDistances(t *testing.T) {
	pl := RingLatency(6, time.Millisecond, time.Millisecond)
	cases := []struct {
		a, b ids.MSS
		want time.Duration
	}{
		{1, 2, 2 * time.Millisecond},
		{1, 4, 4 * time.Millisecond}, // opposite side: distance 3
		{1, 6, 2 * time.Millisecond}, // wrap: distance 1
		{2, 2, time.Millisecond},     // self: distance 0
	}
	rng := sim.NewRNG(1)
	for _, c := range cases {
		got := pl(c.a.Node(), c.b.Node()).Sample(rng)
		if got != c.want {
			t.Errorf("latency %v->%v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if pl(ids.Server(1).Node(), ids.MSS(1).Node()) != nil {
		t.Error("non-station pair should fall back")
	}
}

// holdSeq is a Sequencer that parks every offered delivery until the
// test fires it explicitly.
type holdSeq struct {
	fires []func()
}

func (s *holdSeq) Offer(_ Layer, _, _ ids.NodeID, fire func()) {
	s.fires = append(s.fires, fire)
}

// TestCausalQueueDiagnostics blocks a causally dependent message and
// checks CausalQueue / MemberName expose the blockage, then drains it.
func TestCausalQueueDiagnostics(t *testing.T) {
	k := sim.NewKernel(1)
	seq := &holdSeq{}
	members := staticMembers()
	w := NewWired(k, members, WiredConfig{Causal: true, Seq: seq}, nil)
	var got []record
	for _, m := range members {
		w.Register(m, collector(&got))
	}
	a, b, c := members[0], members[1], members[2]

	w.Send(a, c, msg.Greet{MH: 1}) // m1: the causal predecessor
	w.Send(a, b, msg.Greet{MH: 2}) // m2
	seq.fires[1]()                 // deliver m2 at b
	w.Send(b, c, msg.Greet{MH: 3}) // m3: causally after m1 via b's delivery
	seq.fires[2]()                 // m3 arrives at c before m1 — must block

	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want only m2", len(got))
	}
	infos := w.CausalQueue(c)
	if len(infos) != 1 {
		t.Fatalf("CausalQueue = %d entries, want 1", len(infos))
	}
	if len(infos[0].BlockedOn) != 1 {
		t.Fatalf("BlockedOn = %v, want one sender", infos[0].BlockedOn)
	}
	if blocker := w.MemberName(infos[0].BlockedOn[0]); blocker != a {
		t.Errorf("blocked on %v, want %v", blocker, a)
	}
	if w.MemberName(-1) != ids.NoNode || w.MemberName(99) != ids.NoNode {
		t.Error("out-of-range MemberName did not return NoNode")
	}
	if w.CausalQueue(ids.MSS(9).Node()) != nil {
		t.Error("CausalQueue for a non-member should be nil")
	}

	seq.fires[0]() // m1 arrives; m3 must flush behind it
	if len(got) != 3 {
		t.Fatalf("delivered %d messages after unblocking, want 3", len(got))
	}
	if len(w.CausalQueue(c)) != 0 {
		t.Error("CausalQueue not drained")
	}
}

// TestNewWirelessRequiresReachable checks the constructor guard.
func TestNewWirelessRequiresReachable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWireless accepted a nil Reachable")
		}
	}()
	NewWireless(sim.NewKernel(1), WirelessConfig{}, nil)
}

// TestWirelessUnregisteredHandlersDrop verifies frames to nodes without
// handlers count as drops (not panics): radios genuinely lose frames.
func TestWirelessUnregisteredHandlersDrop(t *testing.T) {
	k := sim.NewKernel(1)
	drops := 0
	obs := func(_ sim.Time, _ Layer, kind EventKind, _, _ ids.NodeID, _ msg.Message) {
		if kind.IsDrop() {
			drops++
		}
	}
	w := NewWireless(k, WirelessConfig{
		Reachable: func(ids.MSS, ids.MH) bool { return true },
	}, obs)
	w.SendDownlink(1, 1, msg.ResultDeliver{Req: ids.RequestID{Origin: 1, Seq: 1}})
	w.SendUplink(1, 1, msg.AckMH{MH: 1, Req: ids.RequestID{Origin: 1, Seq: 1}})
	k.Run()
	if drops != 2 {
		t.Fatalf("drops = %d, want 2 (one per direction)", drops)
	}
}

// TestWirelessSequencerHook routes both directions through the
// adversarial sequencer and fires them manually.
func TestWirelessSequencerHook(t *testing.T) {
	k := sim.NewKernel(1)
	seq := &holdSeq{}
	w := NewWireless(k, WirelessConfig{
		Reachable: func(ids.MSS, ids.MH) bool { return true },
		Seq:       seq,
	}, nil)
	var up, down []record
	w.RegisterMSS(1, collector(&up))
	w.RegisterMH(1, collector(&down))
	w.SendUplink(1, 1, msg.Join{MH: 1})
	w.SendDownlink(1, 1, msg.ResultDeliver{Req: ids.RequestID{Origin: 1, Seq: 1}})
	if len(up)+len(down) != 0 {
		t.Fatal("sequencer did not hold deliveries")
	}
	for _, fire := range seq.fires {
		fire()
	}
	if len(up) != 1 || len(down) != 1 {
		t.Fatalf("delivered up=%d down=%d, want 1/1", len(up), len(down))
	}
}
