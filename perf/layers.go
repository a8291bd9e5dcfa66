package main

// Isolated layer timings: each layer's public functions driven at the
// shape the workload uses them in (group size, queue depth, message mix,
// resident-set size), timed on the calibrated clock. They pin a layer's
// cost when nothing else runs; the traced run's spans and the profile say
// what it costs in place.

import (
	"time"

	"repro/internal/aggstate"
	"repro/internal/causal"
	"repro/internal/dcache"
	"repro/internal/ids"
	"repro/internal/livenet"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/psim"
	"repro/internal/sim"
	"repro/internal/tcpnet"
	"repro/internal/wtp"
)

// nsPerOp times fn, which performs n operations, as one calibrated
// region and returns calibrated ns per operation.
func (c *calib) nsPerOp(n int, fn func()) float64 {
	r := c.begin()
	r.slice(fn)
	sec, _ := r.end()
	return sec * 1e9 / float64(max(n, 1))
}

// simDeferStepNs is one kernel event (pop, callback, Defer of the next)
// with depth events pending, delays drawn like the workload's links.
func simDeferStepNs(cal *calib, depth int) float64 {
	const n = 400_000
	k := sim.NewKernel(1)
	rng := k.RNG()
	var fn func()
	fn = func() { k.Defer(rng.Uniform(time.Millisecond, 200*time.Millisecond), fn) }
	for i := 0; i < max(depth, 1); i++ {
		fn()
	}
	k.RunLimit(uint64(depth)) // settle the heap into steady state
	return cal.nsPerOp(n, func() { k.RunLimit(n) })
}

// causalSendRecvNs is one Send plus the matching in-order Receive in a
// pooled group of the given size (the wired substrate's configuration).
func causalSendRecvNs(cal *calib, size int) float64 {
	if size < 2 {
		return 0
	}
	n := max(10_000, 60_000_000/(size*size+200))
	eps := causal.Group(size, func(int, any) {}, causal.Pooled(true))
	rng := sim.NewRNG(1)
	var payload any = struct{}{}
	return cal.nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			src := rng.Intn(size)
			dst := (src + 1 + rng.Intn(size-1)) % size
			eps[dst].Receive(eps[src].Send(dst), payload)
		}
	})
}

// codecNs replays the recorded wired message mix through the codec.
func codecNs(cal *calib, sample []msg.Message) (encode, decode float64) {
	if len(sample) == 0 {
		return 0, 0
	}
	rounds := max(1, 200_000/len(sample))
	encoded := make([][]byte, len(sample))
	for i, m := range sample {
		b, err := msg.Encode(m)
		if err != nil {
			return 0, 0
		}
		encoded[i] = b
	}
	buf := make([]byte, 0, 4096)
	encode = cal.nsPerOp(rounds*len(sample), func() {
		for r := 0; r < rounds; r++ {
			for _, m := range sample {
				buf, _ = msg.AppendEncode(buf[:0], m) // encodable: encoded above
			}
		}
	})
	var sink msg.Message
	decode = cal.nsPerOp(rounds*len(sample), func() {
		for r := 0; r < rounds; r++ {
			for _, b := range encoded {
				sink, _ = msg.Decode(b) // decodable: produced by Encode
			}
		}
	})
	_ = sink
	return encode, decode
}

// wtpFrameNs is the windowed transport's cost per data frame on a clean
// link: queue, coalesce, send, receive, ack, timer arm and cancel — a
// sender and a receiver joined by fixed delays on a private kernel.
func wtpFrameNs(cal *calib, cfg wtp.Config, payloadBytes int) float64 {
	const msgs = 60_000
	cfg.OnRTTSample, cfg.OnCwnd, cfg.OnRetransmit, cfg.OnFrame, cfg.OnReset = nil, nil, nil, nil, nil
	k := sim.NewKernel(1)
	recv := wtp.NewReceiver(cfg)
	var snd *wtp.Sender
	snd = wtp.NewSender(k, cfg, func(f msg.WtpData) {
		k.Defer(25*time.Millisecond, func() {
			_, ack, live := recv.Accept(f)
			if live {
				k.Defer(25*time.Millisecond, func() { snd.OnAck(ack) })
			}
		})
	})
	m := msg.ResultDeliver{Req: ids.RequestID{Origin: 1, Seq: 1}, Payload: make([]byte, payloadBytes)}
	at := time.Duration(0)
	for i := 0; i < msgs; i++ {
		at += 2 * time.Millisecond
		k.Defer(at, func() { snd.Queue(m) })
	}
	var frames int64
	ns := cal.nsPerOp(1, func() { k.Run(); frames = snd.FramesSent })
	return ns / float64(max(frames, 1))
}

// aggstateNs times the resident-set operations at the workload's set
// size: members hosts spread over an id space of span ids.
func aggstateNs(cal *calib, members, span int) (add, contains, memPerMember, deltaPerMember float64) {
	if members < 1 {
		return
	}
	rng := sim.NewRNG(1)
	var set aggstate.Set
	for set.Len() < members {
		set.Add(uint32(1 + rng.Intn(span)))
	}
	memPerMember = float64(set.MemBytes()) / float64(set.Len())
	deltaPerMember = float64(len(set.AppendDelta(nil))) / float64(set.Len())
	const n = 1_000_000
	// A hand-off is one Remove at the old station and one Add at the new:
	// time the pair, report half.
	add = cal.nsPerOp(2*n, func() {
		for i := 0; i < n; i++ {
			v := uint32(1 + rng.Intn(span))
			if set.Add(v) {
				set.Remove(v)
			}
		}
	})
	hits := 0
	contains = cal.nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			if set.Contains(uint32(1 + rng.Intn(span))) {
				hits++
			}
		}
	})
	_ = hits
	return
}

// dcacheNs is one lookup plus, on a miss, one store, over a query pool of
// the workload's size with its popularity skew.
func dcacheNs(cal *calib, cfg dcache.Config, pool, payloadBytes int) float64 {
	if !cfg.Enabled() || pool < 1 {
		return 0
	}
	const n = 1_000_000
	c := dcache.New(cfg)
	rng := sim.NewRNG(1)
	result := make([]byte, payloadBytes+3)
	return cal.nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			u := rng.Float64()
			key := dcache.Key{Server: 1, Digest: uint64(u * u * float64(pool))}
			now := time.Duration(i) * time.Millisecond
			if _, out := c.Get(key, now); out != dcache.Hit {
				c.Put(key, result, now)
			}
		}
	})
}

// psimWindowNs is the barrier cost of one lookahead window over regions
// that have nearly nothing to do: one idle host per region toggling its
// activity once a window.
func psimWindowNs(cal *calib, s *spec) float64 {
	if s.regions == 0 {
		return 0
	}
	const windows = 20_000
	cfg := s.config()
	pw := psim.New(psim.Config{Base: cfg, Regions: s.regions, Workers: 1, Lookahead: s.lookahead})
	perRegion := s.cells / s.regions
	for r := 0; r < s.regions; r++ {
		events := make([]psim.MHEvent, windows)
		for i := range events {
			kind := psim.EvDeactivate
			if i%2 == 1 {
				kind = psim.EvActivate
			}
			events[i] = psim.MHEvent{At: time.Duration(i+1) * s.lookahead, Kind: kind, Cell: ids.MSS(r*perRegion + 1)}
		}
		pw.AddMH(ids.MH(r+1), ids.MSS(r*perRegion+1), events)
	}
	return cal.nsPerOp(windows, func() { pw.RunUntil(time.Duration(windows+1) * s.lookahead) })
}

// tcpLoopbackRoundTripUs is the median wall-clock round trip of one wired
// message over tcpnet on the loopback interface. Raw, not calibrated: at
// this core count a socket round trip measures the host's scheduler, which
// is why tcpnet is a layer metric and not a workload. Zero when the
// sandbox has no loopback.
func tcpLoopbackRoundTripUs() float64 {
	const trips = 300
	rt := livenet.New(1)
	a, b := ids.MSS(1).Node(), ids.MSS(2).Node()
	n := tcpnet.New(rt, []ids.NodeID{a, b})
	if err := n.Start(); err != nil {
		return 0
	}
	defer n.Close()
	back := make(chan struct{}, 1)
	n.Register(b, netsim.HandlerFunc(func(_ ids.NodeID, m msg.Message) { n.Send(b, a, m) }))
	n.Register(a, netsim.HandlerFunc(func(ids.NodeID, msg.Message) { back <- struct{}{} }))
	rt.Start()
	defer rt.Stop()
	var us []float64
	for i := 0; i < trips; i++ {
		t0 := time.Now()
		rt.Do(func() { n.Send(a, b, msg.ServerAck{Req: ids.RequestID{Origin: 1, Seq: uint32(i + 1)}}) })
		select {
		case <-back:
			us = append(us, float64(time.Since(t0))/1e3)
		case <-time.After(2 * time.Second):
			return 0
		}
	}
	return median(us)
}
