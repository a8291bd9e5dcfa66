package netsim

import (
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
)

// ARQConfig parameterizes the wired link-layer retransmission protocol
// (positive acks, timeout-driven retransmission with capped exponential
// backoff, receiver-side dedup). With ARQ layered under the causal
// delivery, internal/causal sees a reliable stream again even when the
// backbone drops or duplicates frames — restoring paper assumption 1
// over a faulty network.
type ARQConfig struct {
	// Enabled turns the ARQ layer on.
	Enabled bool
	// RTO is the initial retransmission timeout (default 50ms). It must
	// exceed the round-trip time of the link or every frame is sent at
	// least twice.
	RTO time.Duration
	// MaxBackoff caps the exponential backoff between retransmissions
	// (default 2s).
	MaxBackoff time.Duration
}

func (c ARQConfig) rto() time.Duration {
	if c.RTO > 0 {
		return c.RTO
	}
	return 50 * time.Millisecond
}

// BackoffCap returns the backoff cap in effect: MaxBackoff, or its
// default when unset.
func (c ARQConfig) BackoffCap() time.Duration {
	if c.MaxBackoff > 0 {
		return c.MaxBackoff
	}
	return 2 * time.Second
}

// backoff returns the wait before the next retransmission after the
// given attempt number (1-based): RTO doubled per attempt, capped.
func (c ARQConfig) backoff(attempt int) time.Duration {
	d := c.rto()
	max := c.BackoffCap()
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= max {
			return max
		}
	}
	if d > max {
		d = max
	}
	return d
}

// retransmissions returns one FIFO of retransmission timers per backoff
// step, from RTO up to the cap: a retransmission after attempt a waits in
// the FIFO at min(a, len)-1 (see sim.Timeouts).
func (c ARQConfig) retransmissions(k sim.Scheduler) []*sim.Timeouts[*arqPending] {
	var fifos []*sim.Timeouts[*arqPending]
	for a := 1; ; a++ {
		d := c.backoff(a)
		fifos = append(fifos, sim.NewTimeouts(k, d, (*arqPending).onTimeout, (*arqPending).spent))
		if d == c.BackoffCap() {
			return fifos
		}
	}
}

// wiredLink is the ARQ state of one directed wired link: the send half
// (sequence counter and un-acked count) and the receive half (dedup).
// Like the links themselves it belongs to the network fabric, not to the
// hosts at either end, so it survives their crashes. Frames are retried
// without bound and handed up in arrival order — a different contract
// from the radio's internal/wtp (bounded retries, in-order delivery).
// Wired is the ARQ's only host; the TCP substrate relies on TCP instead.
type wiredLink struct {
	from, to ids.NodeID
	fi, ti   int // their member indices
	nextSeq  uint64
	pending  int // un-acked frames
	// retransmits counts timeout-driven re-sends on this link.
	retransmits int64
	recv        arqReceiver
}

// arqPending is one message the ARQ answers for, from Send until it is
// acked: a recycled record, like the wiredFrame it delivers (DESIGN §10,
// Records, not closures), so a hop over the fault-tolerant backbone allocates nothing.
// Every kernel event of the exchange — an arrival of the frame (each
// transmission, each fault duplicate), an ack on its way back — is one of
// the two fire methods bound below, the armed retransmission a call
// waiting in one of Wired.retx, and refs counts the events and calls
// still scheduled: the record outlives frame, which is handed up at first
// accept and then belongs to the delivery, and is retired once the
// message is acked and refs is back to zero. No timer is cancelled: the
// retransmission of an acked message drops its reference and does
// nothing else (spent) — at its due, or earlier, without an event, when
// its FIFO finds it so — and the schedule of every event that does
// something is what cancelling would have left.
//
// A lost attempt is reported after the frame may have been handed up and
// its record released, so the ARQ keeps the frame's envelope and shows a
// listener the link-layer frame as a pointer into its own record (lost,
// lostAck): a drop report boxes nothing.
type arqPending struct {
	w       *Wired
	l       *wiredLink
	seq     uint64
	env     msg.Envelope  // the frame's message
	lost    msg.LinkFrame // the lost frame a drop report shows, by pointer
	lostAck msg.LinkAck   // the lost ack a drop report shows, by pointer
	frame   *wiredFrame   // performs the delivery; nil once handed up
	attempt int
	acked   bool
	refs    int
	// The fire methods, bound once when the record is first allocated.
	recv, ack func()
}

// link returns (creating on first use) the ARQ state of a directed link.
func (w *Wired) link(fi, ti int) *wiredLink {
	key := fi*len(w.members) + ti
	l, ok := w.links[key]
	if !ok {
		l = &wiredLink{from: w.members[fi], to: w.members[ti], fi: fi, ti: ti}
		w.links[key] = l
	}
	return l
}

// sendARQ assigns f's message the link's next sequence number, transmits
// it and keeps retransmitting until the frame is acked.
func (w *Wired) sendARQ(f *wiredFrame) {
	l := w.link(f.fi, f.ti)
	l.nextSeq++
	l.pending++
	p := w.arq.Get()
	if p == nil {
		p = &arqPending{w: w}
		p.recv, p.ack = p.onArrival, p.onAck
	}
	p.l, p.seq, p.env, p.frame, p.attempt, p.acked = l, l.nextSeq, f.env, f, 1, false
	p.transmit(false)
	p.arm()
}

// arm schedules the retransmission that follows the current attempt, in
// the FIFO of its backoff step.
func (p *arqPending) arm() {
	p.refs++
	retx := p.w.retx
	retx[min(p.attempt, len(retx))-1].Add(p)
}

// spent is a retransmission's dead test: once the message is acked the
// timer only drops its reference, and that is final.
func (p *arqPending) spent() bool {
	if !p.acked {
		return false
	}
	p.refs--
	p.retire()
	return true
}

func (p *arqPending) onTimeout() {
	if p.spent() {
		return
	}
	p.refs--
	p.attempt++
	p.l.retransmits++
	p.transmit(false)
	p.arm()
}

// transmit is one physical transmission attempt: of the frame, or of its
// ack on the reverse direction of the link. Both are subject to the same
// faults; a lost ack just costs one retransmission. A shed attempt (full
// link queue) leaves the frame un-acked; the ARQ timeout re-offers it
// after the queue has had time to drain.
func (p *arqPending) transmit(ack bool) {
	fi, ti, fire := p.l.fi, p.l.ti, p.recv
	if ack {
		fi, ti, fire = ti, fi, p.ack
	}
	lf := p.w.fault(p.w.members[fi], p.w.members[ti])
	if lf.Drop {
		p.drop(EventDroppedLoss, ack)
		return
	}
	sent, shed := p.w.enqueue(fi, ti, lf, fire)
	p.refs += sent
	for ; shed > 0; shed-- {
		p.drop(EventShed, ack)
	}
}

// drop reports the loss of the frame or of its ack, to the drop hook and
// the observer. The link-layer frame exists only here, filled in the
// record for a listener and shown by pointer, its Inner what the kept
// envelope shows.
func (p *arqPending) drop(kind EventKind, ack bool) {
	if p.w.cfg.OnDrop != nil {
		p.w.cfg.OnDrop(LayerWired, kind)
	}
	switch {
	case p.w.observer == nil:
	case ack:
		p.lostAck = msg.LinkAck{Seq: p.seq}
		p.w.observe(kind, p.l.to, p.l.from, &p.lostAck)
	default:
		p.lost = msg.LinkFrame{Seq: p.seq, Inner: p.env.Message()}
		p.w.observe(kind, p.l.from, p.l.to, &p.lost)
	}
}

// onArrival runs at the receiving end of an ARQ link. A frame that
// arrives at a down host is dropped un-acked, so it keeps retransmitting
// until the host restarts. Every accepted arrival is acked — including
// duplicates, whose first ack may have been lost.
func (p *arqPending) onArrival() {
	w, l := p.w, p.l
	p.refs--
	w.dequeue(l.fi, l.ti)
	if w.cfg.Down != nil && w.cfg.Down(l.to) {
		p.drop(EventDroppedUnreachable, false)
		p.retire()
		return
	}
	p.transmit(true)
	if !l.recv.accept(p.seq) {
		p.retire()
		return
	}
	// First accept: un-acked, so the record stays; the handler may send.
	f := p.frame
	p.frame = nil
	w.arrive(f)
}

// onAck runs where an ack lands. Acks are processed regardless of the
// original sender's up/down state: the link-layer state lives in the
// network fabric, not in the crashing host. A second ack for the same
// frame (a faulty link duplicates acks too) only drops its reference.
func (p *arqPending) onAck() {
	p.refs--
	p.w.dequeue(p.l.ti, p.l.fi)
	if !p.acked {
		p.acked = true
		p.l.pending--
	}
	p.retire()
}

// retire recycles the record once its message is acked and no scheduled
// event names it any more; nothing touches it afterwards.
func (p *arqPending) retire() {
	if p.acked && p.refs == 0 {
		p.env, p.lost.Inner = msg.Envelope{}, nil
		p.w.arq.Put(p)
	}
}

// ARQStats sums link-layer retransmissions and still-outstanding
// (un-acked) frames over all links.
func (w *Wired) ARQStats() (retransmits int64, outstanding int) {
	for _, l := range w.links {
		retransmits += l.retransmits
		outstanding += l.pending
	}
	return retransmits, outstanding
}

// arqReceiver is the receive half: at-most-once delivery by sequence
// number. Because the sender assigns contiguous numbers and every frame
// is eventually delivered, the seen-set is compacted into a contiguous
// watermark plus a (transient) set of out-of-order arrivals, made on
// first use.
type arqReceiver struct {
	contig uint64          // every seq <= contig has been accepted
	ahead  map[uint64]bool // accepted above contig+1
}

// accept reports whether seq is seen for the first time, recording it.
// Only an out-of-order frame touches ahead; an in-order one moves contig
// and drains ahead only while ahead holds something.
func (r *arqReceiver) accept(seq uint64) bool {
	switch {
	case seq <= r.contig:
		return false
	case seq > r.contig+1:
		if r.ahead[seq] {
			return false
		}
		if r.ahead == nil {
			r.ahead = make(map[uint64]bool)
		}
		r.ahead[seq] = true
		return true
	}
	r.contig++
	for len(r.ahead) > 0 && r.ahead[r.contig+1] {
		delete(r.ahead, r.contig+1)
		r.contig++
	}
	return true
}
