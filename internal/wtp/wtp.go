// Package wtp implements the windowed wireless transport (E15): a
// per-(MSS, MH) sliding-window ARQ with cumulative + selective
// acknowledgments, Jacobson/Karn round-trip estimation driving the
// retransmission timeout, an AIMD congestion window (slow start,
// halve-on-loss), and downlink coalescing — many small results destined
// for one mobile merge into a single frame up to an MTU budget.
//
// The package is a pure algorithm, deliberately free of any randomness:
// the caller passes an output callback and a sim.Scheduler, and all
// state advances through that scheduler, so a windowed link inside a
// psim region replays identically under any worker count.
// netsim.Wireless is its one host, driving it with simulated radio
// frames.
//
// A warm link makes no garbage: frames are values in a ring indexed by
// sequence number, each keeping its messages as msg.Envelope values in an
// array an acked frame hands on to a later one; the receiver parks
// out-of-order frames in arrays it reuses the same way and builds each
// ack's block list in a buffer it owns; and timers are recycled records
// that are never cancelled — a spent one fires, finds its generation gone
// and does nothing.
//
// Contrast with netsim's wired ARQ (the E10 link layer): that protocol
// retransmits each frame independently with no window, no congestion
// response and no batching — fine for the fast wired backbone, but on a
// lossy high-latency radio link it serializes one frame per round trip.
// wtp keeps min(Window, cwnd) frames in flight and packs multiple
// results per frame, which is where the E15 goodput multiple comes
// from.
package wtp

import (
	"slices"
	"time"

	"repro/internal/msg"
	"repro/internal/sim"
)

// Config parameterizes one direction of a windowed link. The zero value
// (with Enabled set) gives a sensible radio-link tuning; every knob has
// a documented default.
type Config struct {
	// Enabled turns the windowed transport on. Off, the owning
	// substrate must not touch this package at all — the legacy path
	// stays byte-identical.
	Enabled bool

	// Window caps the frames in flight regardless of the congestion
	// window (default 32). Window 1 with MTU 1 degenerates to a classic
	// stop-and-wait ARQ — the E15 baseline rows use exactly that.
	Window int

	// MTU is the coalescing byte budget per data frame (default 1024).
	// A frame closes as soon as adding the next message would exceed
	// it; a single oversized message still travels alone.
	MTU int

	// CoalesceDelay bounds how long a partially filled frame may wait
	// for more traffic before it is flushed (default 2ms). Negative
	// disables the delay: every queued message flushes immediately.
	CoalesceDelay time.Duration

	// InitialRTO seeds the retransmission timeout before the first RTT
	// sample (default 100ms). MinRTO/MaxRTO clamp the estimator
	// (defaults 20ms / 2s).
	InitialRTO time.Duration
	MinRTO     time.Duration
	MaxRTO     time.Duration

	// InitialCwnd is the slow-start entry window in frames (default 2).
	InitialCwnd int

	// DupThresh is the selective-ack gap count that triggers a fast
	// retransmission (default 3, TCP's classic dupack threshold).
	DupThresh int

	// MaxRetries bounds the transmission attempts per frame (default
	// 12). A frame that exhausts it resets the link: every pending
	// frame is dropped and the epoch bumps, restoring the paper's
	// silent-loss semantics so the proxy-level recovery machinery
	// (re-greets, request retries) takes over for an unreachable host.
	MaxRetries int

	// MaxSacks caps the selective-ack blocks carried per ack frame
	// (default 32).
	MaxSacks int

	// Metric hooks, all optional and invoked synchronously on the
	// kernel goroutine. OnRTTSample fires per Karn-valid sample with
	// the new smoothed RTO; OnCwnd after every congestion-window
	// change; OnRetransmit per timeout or fast retransmission; OnFrame
	// at each first transmission with the coalesced message count;
	// OnReset when a link gives up, with the messages dropped.
	OnRTTSample  func(rtt, rto time.Duration)
	OnCwnd       func(cwnd int)
	OnRetransmit func()
	OnFrame      func(msgs int)
	OnReset      func(droppedMsgs int)
}

func (c Config) window() int {
	if c.Window > 0 {
		return c.Window
	}
	return 32
}

func (c Config) mtu() int {
	if c.MTU > 0 {
		return c.MTU
	}
	return 1024
}

func (c Config) coalesceDelay() time.Duration {
	if c.CoalesceDelay < 0 {
		return 0
	}
	if c.CoalesceDelay == 0 {
		return 2 * time.Millisecond
	}
	return c.CoalesceDelay
}

func (c Config) initialRTO() time.Duration {
	if c.InitialRTO > 0 {
		return c.InitialRTO
	}
	return 100 * time.Millisecond
}

func (c Config) minRTO() time.Duration {
	if c.MinRTO > 0 {
		return c.MinRTO
	}
	return 20 * time.Millisecond
}

func (c Config) maxRTO() time.Duration {
	if c.MaxRTO > 0 {
		return c.MaxRTO
	}
	return 2 * time.Second
}

func (c Config) initialCwnd() int {
	if c.InitialCwnd > 0 {
		return c.InitialCwnd
	}
	return 2
}

func (c Config) dupThresh() int {
	if c.DupThresh > 0 {
		return c.DupThresh
	}
	return 3
}

func (c Config) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return 12
}

func (c Config) maxSacks() int {
	if c.MaxSacks > 0 {
		return c.MaxSacks
	}
	return 32
}

// frame is one data frame, from the flush that closes it until an ack
// covers it: a value in the sender's ring, at its sequence number. A
// transmission is shown inner, valid for the transmit call only: once
// the frame is acked its array goes to a later frame.
type frame struct {
	inner   []msg.Envelope
	sentAt  sim.Time
	timer   uint64 // generation of its armed retransmission; 0 when none is
	attempt int32  // transmissions so far (0 = still backlogged)
	gapAcks int32  // acks seen that advanced past this hole
	rtxed   bool   // ever retransmitted: Karn's rule bars its RTT sample
	acked   bool   // covered by an ack (a sacked frame above the lowest un-acked)
}

// timer is one wake-up a sender scheduled — its coalescing flush or a
// frame's retransmission — named by the generation it was armed with.
// Disarming moves the generation on instead of cancelling, so a spent
// timer finds another one when it fires and does nothing.
type timer struct{ seq, gen uint64 }

// Sender is the transmit half of one directed windowed link. All
// methods must be called from the owning kernel's goroutine.
type Sender struct {
	k        sim.Scheduler
	cfg      Config
	transmit func(msg.WtpData)
	timers   *sim.Calls[timer]
	gen      uint64 // the last timer generation handed out
	flushGen uint64 // the armed coalescing flush's; 0 when none is

	epoch   uint64
	nextSeq uint64

	// Coalescing buffer: messages accepted but not yet framed. Its array
	// is reused; each frame copies exactly its messages into an array of
	// spare, or a new one.
	pend      []msg.Envelope
	pendBytes int
	spare     arrays

	// ring holds the frames from the lowest un-acked one, base, to
	// nextSeq, frame seq at ring[seq&(len(ring)-1)]. Those up to sent have
	// been transmitted; the rest wait for the window. unacked counts the
	// frames in it no ack has covered.
	ring       []frame
	base, sent uint64
	unacked    int

	// Congestion and RTT state.
	cwnd     float64
	ssthresh float64
	srtt     time.Duration
	rttvar   time.Duration
	rto      time.Duration
	// recoverSeq implements one-cut-per-loss-event (NewReno style):
	// losses at or below it belong to an already-penalized event.
	recoverSeq uint64

	// Counters, exported for tests and substrate-level aggregation.
	Retransmits     int64
	FastRetransmits int64
	Resets          int64
	FramesSent      int64 // first transmissions
	MsgsFramed      int64 // messages carried by first transmissions
}

// NewSender builds a sender that emits frames via transmit. The
// callback owns actual delivery (radio simulation, socket write); the
// sender only decides what to send when. transmit must not call back
// into the sender, and is shown the frame's envelopes in the sender's
// ring: whatever keeps them past the call copies them (netsim's radio
// record does), since a later frame rewrites them once an ack covers it.
func NewSender(k sim.Scheduler, cfg Config, transmit func(msg.WtpData)) *Sender {
	s := &Sender{
		k:        k,
		cfg:      cfg,
		transmit: transmit,
		ring:     make([]frame, 8),
		base:     1,
		cwnd:     float64(cfg.initialCwnd()),
		ssthresh: float64(cfg.window()),
		rto:      cfg.initialRTO(),
	}
	s.timers = sim.NewCalls(k, s.fire)
	return s
}

// Epoch returns the current link epoch (bumped by every reset).
func (s *Sender) Epoch() uint64 { return s.epoch }

// Cwnd returns the current congestion window in frames.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// RTO returns the current retransmission timeout.
func (s *Sender) RTO() time.Duration { return s.rto }

// SRTT returns the smoothed round-trip estimate (0 before any sample).
func (s *Sender) SRTT() time.Duration { return s.srtt }

// Outstanding reports frames not yet acknowledged, transmitted or not.
func (s *Sender) Outstanding() int { return s.unacked }

// Backlog reports frames and unframed messages waiting for the window.
func (s *Sender) Backlog() int { return int(s.nextSeq-s.sent) + len(s.pend) }

// at returns the ring slot of seq.
func (s *Sender) at(seq uint64) *frame { return &s.ring[seq&uint64(len(s.ring)-1)] }

// arm schedules a timer after d and returns its generation.
func (s *Sender) arm(seq uint64, d time.Duration) uint64 {
	s.gen++
	s.timers.Defer(d, timer{seq, s.gen})
	return s.gen
}

// Queue accepts one message for (coalesced) reliable delivery. It keeps
// the message's envelope: a view shown it is copied, never boxed.
func (s *Sender) Queue(m msg.Message) {
	sz := msg.WireSize(m)
	if len(s.pend) > 0 && s.pendBytes+sz > s.cfg.mtu() {
		s.flushNow()
	}
	s.pend = append(s.pend, msg.EnvelopeOf(m))
	s.pendBytes += sz
	if s.pendBytes >= s.cfg.mtu() {
		s.flushNow()
		return
	}
	if s.flushGen == 0 {
		d := s.cfg.coalesceDelay()
		if d <= 0 {
			s.flushNow()
			return
		}
		s.flushGen = s.arm(0, d)
	}
}

// flushNow closes the coalescing buffer into one frame and pumps.
func (s *Sender) flushNow() {
	s.flushGen = 0
	if len(s.pend) == 0 {
		return
	}
	s.nextSeq++
	if s.nextSeq-s.base == uint64(len(s.ring)) {
		ring := make([]frame, 2*len(s.ring))
		for seq := s.base; seq < s.nextSeq; seq++ {
			ring[seq&uint64(len(ring)-1)] = *s.at(seq)
		}
		s.ring = ring
	}
	*s.at(s.nextSeq) = frame{inner: append(s.spare.get(), s.pend...)}
	s.unacked++
	clear(s.pend)
	s.pend, s.pendBytes = s.pend[:0], 0
	s.pump()
}

// effWindow is the effective send window: min(Window, floor(cwnd)),
// never below 1 so the link cannot deadlock.
func (s *Sender) effWindow() int {
	w := int(s.cwnd)
	if max := s.cfg.window(); w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// inflight counts transmitted-but-unacked frames.
func (s *Sender) inflight() int { return s.unacked - int(s.nextSeq-s.sent) }

// pump transmits backlogged frames while the window has room.
func (s *Sender) pump() {
	for s.sent < s.nextSeq && s.inflight() < s.effWindow() {
		s.sent++
		s.sendFrame(s.sent)
	}
}

// sendFrame performs one transmission attempt of frame seq and arms its
// retransmission, with per-frame exponential backoff over the current
// smoothed RTO.
func (s *Sender) sendFrame(seq uint64) {
	f := s.at(seq)
	f.attempt++
	if f.attempt == 1 {
		f.sentAt = s.k.Now()
		s.FramesSent++
		s.MsgsFramed += int64(len(f.inner))
		if s.cfg.OnFrame != nil {
			s.cfg.OnFrame(len(f.inner))
		}
	}
	s.transmit(msg.WtpData{Epoch: s.epoch, Seq: seq, Inner: f.inner})
	d, max := s.rto, s.cfg.maxRTO()
	for i := int32(1); i < f.attempt && d < max; i++ {
		d *= 2
	}
	f.timer = s.arm(seq, min(d, max))
}

// fire runs a timer: the coalescing flush, or the retransmission of the
// frame it was armed for — unless it is spent.
func (s *Sender) fire(t timer) {
	if t.gen == s.flushGen {
		s.flushNow()
		return
	}
	f := s.at(t.seq)
	if f.timer != t.gen {
		return // spent: acked, retransmitted since, or the link was reset
	}
	if int(f.attempt) >= s.cfg.maxRetries() {
		s.reset()
		return
	}
	s.onLoss(t.seq)
	f.rtxed = true
	s.Retransmits++
	if s.cfg.OnRetransmit != nil {
		s.cfg.OnRetransmit()
	}
	s.sendFrame(t.seq)
}

// onLoss applies the multiplicative decrease once per loss event: the
// congestion window halves (slow-start threshold follows) unless a cut
// already covered this sequence range.
func (s *Sender) onLoss(seq uint64) {
	if seq <= s.recoverSeq {
		return
	}
	s.recoverSeq = s.nextSeq
	s.ssthresh = s.cwnd / 2
	if s.ssthresh < 1 {
		s.ssthresh = 1
	}
	s.cwnd = s.ssthresh
	if s.cfg.OnCwnd != nil {
		s.cfg.OnCwnd(int(s.cwnd))
	}
}

// ackFrame retires frame seq unless an ack already did: timer disarmed,
// Karn-valid RTT sample, additive (or slow-start) window growth.
func (s *Sender) ackFrame(seq uint64) {
	f := s.at(seq)
	if f.acked {
		return
	}
	s.spare.put(f.inner)
	f.acked, f.timer, f.inner = true, 0, nil
	s.unacked--
	if !f.rtxed {
		s.sampleRTT(time.Duration(s.k.Now() - f.sentAt))
	}
	if s.cwnd < s.ssthresh {
		s.cwnd++ // slow start: one frame per acked frame
	} else {
		s.cwnd += 1 / s.cwnd // congestion avoidance: ~one per RTT
	}
	if max := float64(s.cfg.window()); s.cwnd > max {
		s.cwnd = max
	}
	if s.cfg.OnCwnd != nil {
		s.cfg.OnCwnd(int(s.cwnd))
	}
}

// sampleRTT folds one round-trip sample into the Jacobson estimator
// and recomputes the RTO: srtt + max(4·rttvar, MinRTO), clamped to
// [MinRTO, MaxRTO]. The slack floor is the RFC 6298 granularity guard:
// on a constant-delay link rttvar decays toward zero and a bare
// srtt + 4·rttvar converges to exactly one round trip, so the timer
// would race every ack and retransmit frames that are merely in
// flight.
func (s *Sender) sampleRTT(rtt time.Duration) {
	if rtt < 0 {
		return
	}
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
	} else {
		diff := s.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + rtt) / 8
	}
	slack := 4 * s.rttvar
	if min := s.cfg.minRTO(); slack < min {
		slack = min
	}
	s.rto = s.srtt + slack
	if min := s.cfg.minRTO(); s.rto < min {
		s.rto = min
	}
	if max := s.cfg.maxRTO(); s.rto > max {
		s.rto = max
	}
	if s.cfg.OnRTTSample != nil {
		s.cfg.OnRTTSample(rtt, s.rto)
	}
}

// OnAck processes one acknowledgment frame from the receiver. Frames
// are retired walking up by sequence number — the cumulative run, then
// the selective blocks as listed (ascending, from a Receiver) — an order
// the RTT and window hooks' order-sensitive consumers rely on.
func (s *Sender) OnAck(a msg.WtpAck) {
	if a.Epoch != s.epoch {
		return // stale epoch: a reset outran this ack
	}
	// Cumulative portion: everything at or below Cum is delivered.
	for seq := s.base; seq <= a.Cum && seq <= s.nextSeq; seq++ {
		s.ackFrame(seq)
	}
	// Selective portion: sacked frames are held by the receiver for
	// reordering; they are as delivered as the cumulative ones.
	topSack := a.Cum
	for _, seq := range a.Sacks {
		topSack = max(topSack, seq)
		if seq >= s.base && seq <= s.nextSeq {
			s.ackFrame(seq)
		}
	}
	for s.base <= s.nextSeq && s.at(s.base).acked {
		*s.at(s.base) = frame{}
		s.base++
	}
	// Gap detection: every in-flight frame below the highest sacked
	// sequence was overtaken; enough overtakes trigger one fast
	// retransmission (and one window cut per loss event).
	for seq := s.base; seq < topSack && seq <= s.sent; seq++ {
		f := s.at(seq)
		if f.acked {
			continue
		}
		if f.gapAcks++; int(f.gapAcks) >= s.cfg.dupThresh() {
			f.gapAcks = 0
			s.onLoss(seq)
			f.rtxed = true
			s.FastRetransmits++
			s.Retransmits++
			if s.cfg.OnRetransmit != nil {
				s.cfg.OnRetransmit()
			}
			s.sendFrame(seq)
		}
	}
	s.pump()
}

// Reset abandons the link: every pending, backlogged and coalescing
// message is dropped, the epoch bumps (so stale frames and acks are
// ignored on both ends), and the congestion state returns to its
// initial tuning. The higher layers' recovery machinery — proxy
// retransmission on re-greet, client request retries — owns whatever
// was dropped, exactly as it owns a plain radio loss.
func (s *Sender) Reset() { s.reset() }

func (s *Sender) reset() {
	dropped := len(s.pend)
	for seq := s.base; seq <= s.nextSeq; seq++ {
		f := s.at(seq)
		dropped += len(f.inner) // nil once acked
		s.spare.put(f.inner)
		*f = frame{}
	}
	clear(s.pend)
	s.pend, s.pendBytes, s.flushGen = s.pend[:0], 0, 0
	s.epoch++
	s.nextSeq, s.base, s.sent, s.unacked = 0, 1, 0, 0
	s.recoverSeq = 0
	s.cwnd = float64(s.cfg.initialCwnd())
	s.ssthresh = float64(s.cfg.window())
	s.srtt = 0
	s.rttvar = 0
	s.rto = s.cfg.initialRTO()
	s.Resets++
	if s.cfg.OnReset != nil {
		s.cfg.OnReset(dropped)
	}
}

// Receiver is the receive half: it reorders frames into sequence
// order, produces one ack per arriving frame (cumulative watermark +
// selective blocks), and hands back the coalesced messages ready for
// in-order delivery.
type Receiver struct {
	cfg   Config
	epoch uint64
	cum   uint64 // every seq <= cum delivered
	ahead map[uint64][]msg.Envelope
	run   []msg.Envelope // the last hand-up that drained parked frames
	spare arrays         // for the next frames to park
	sacks []uint64       // the last ack's selective blocks

	// Duplicates counts redundant data frames (retransmissions that
	// lost the race with their ack).
	Duplicates int64
}

// NewReceiver returns an empty receiver.
func NewReceiver(cfg Config) *Receiver {
	return &Receiver{cfg: cfg, ahead: make(map[uint64][]msg.Envelope)}
}

// Cum returns the in-order delivery watermark (test hook).
func (r *Receiver) Cum() uint64 { return r.cum }

// Accept processes one data frame. ok=false means the frame belongs to
// a dead epoch and must be ignored entirely (no ack — the sender that
// cares has moved on). Otherwise deliver holds the messages newly
// deliverable in sequence order (possibly none) and ack is the
// acknowledgment to send back.
//
// deliver and ack's Sacks are valid until the next Accept: deliver is the
// frame's own list when the frame arrives in order with nothing parked,
// and otherwise a buffer the next call clears and reuses, and Sacks is a
// buffer the next call rewrites. A frame that has to wait for a hole is
// copied into an array the receiver owns, so f's list is only read during
// the call. Whoever holds an ack across calls copies its Sacks.
func (r *Receiver) Accept(f msg.WtpData) (deliver []msg.Envelope, ack msg.WtpAck, ok bool) {
	if f.Epoch < r.epoch {
		return nil, msg.WtpAck{}, false
	}
	clear(r.run)
	r.run = r.run[:0]
	if cap(r.run) > maxRun {
		r.run = nil // a burst's drain buffer is not kept
	}
	if f.Epoch > r.epoch {
		// The sender reset: adopt the new epoch with fresh state.
		r.epoch, r.cum = f.Epoch, 0
		for _, inner := range r.ahead {
			r.spare.put(inner)
		}
		clear(r.ahead)
	}
	_, buffered := r.ahead[f.Seq]
	switch {
	case f.Seq <= r.cum || buffered:
		r.Duplicates++
	case f.Seq == r.cum+1 && len(r.ahead) == 0:
		r.cum++
		deliver = f.Inner
	default:
		// Parked, even when empty: presence must survive an empty frame.
		r.ahead[f.Seq] = append(r.spare.get(), f.Inner...)
		for inner, ok := r.ahead[r.cum+1]; ok; inner, ok = r.ahead[r.cum+1] {
			r.run = append(r.run, inner...)
			r.spare.put(inner)
			delete(r.ahead, r.cum+1)
			r.cum++
		}
		deliver = r.run
	}
	ack = msg.WtpAck{Epoch: r.epoch, Cum: r.cum}
	if len(r.ahead) > 0 {
		r.sacks = r.sacks[:0]
		for seq := range r.ahead {
			r.sacks = append(r.sacks, seq)
		}
		slices.Sort(r.sacks)
		ack.Sacks = r.sacks[:min(len(r.sacks), r.cfg.maxSacks())]
	}
	return deliver, ack, true
}

// Reuse saves allocations, but what a link keeps for reuse is live
// memory whether or not the link is busy, so it is bounded: at most
// maxSpare emptied message arrays (arrays) and a drain buffer of at most
// maxRun messages (Receiver.run). A link keeps arrays for the frames it
// holds and a few besides, not for the most it ever held.
const (
	maxSpare = 3
	maxRun   = 16
)

// arrays holds emptied message arrays for reuse, at most maxSpare.
type arrays [][]msg.Envelope

// get returns an empty array: a spare one, or nil to append to.
func (p *arrays) get() []msg.Envelope {
	n := len(*p)
	if n == 0 {
		return nil
	}
	a := (*p)[n-1]
	*p = (*p)[:n-1]
	return a
}

// put empties a, so it pins no payload, and keeps it if there is room.
func (p *arrays) put(a []msg.Envelope) {
	clear(a)
	if a != nil && len(*p) < maxSpare {
		*p = append(*p, a[:0])
	}
}
