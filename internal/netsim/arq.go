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

// wiredLink is the ARQ state of one directed wired link: the send half
// (sequence counter and un-acked frames) and the receive half (dedup).
// Like the links themselves it belongs to the network fabric, not to the
// hosts at either end, so it survives their crashes. Frames are retried
// without bound and handed up in arrival order — a different contract
// from the radio's internal/wtp (bounded retries, in-order delivery).
// Wired is the ARQ's only host; the TCP substrate relies on TCP instead.
type wiredLink struct {
	from, to ids.NodeID
	nextSeq  uint64
	pending  map[uint64]*arqPending // un-acked frames by seq
	// retransmits counts timeout-driven re-sends on this link.
	retransmits int64
	recv        arqReceiver
}

// arqPending is one un-acked frame. frame performs the delivery; every
// transmission shares it, so the causal stamp is assigned exactly once
// per message, and it is let go when it fires — a retransmission of a
// delivered frame stops at the receiver's dedup and never sees it.
type arqPending struct {
	m       msg.Message
	frame   *wiredFrame
	attempt int
	timer   sim.Canceler
}

// link returns (creating on first use) the ARQ state of a directed link.
func (w *Wired) link(fi, ti int) *wiredLink {
	key := fi*len(w.members) + ti
	l, ok := w.links[key]
	if !ok {
		l = &wiredLink{
			from: w.members[fi], to: w.members[ti],
			pending: make(map[uint64]*arqPending),
			recv:    arqReceiver{ahead: make(map[uint64]bool)},
		}
		w.links[key] = l
	}
	return l
}

// sendARQ assigns f's message the link's next sequence number, transmits
// it and keeps retransmitting until the frame is acked.
func (w *Wired) sendARQ(f *wiredFrame) {
	l := w.link(f.fi, f.ti)
	l.nextSeq++
	seq := l.nextSeq
	p := &arqPending{m: f.m, frame: f, attempt: 1}
	l.pending[seq] = p
	w.transmitFrame(l, seq, p)
	w.armRetransmit(l, seq, p)
}

func (w *Wired) armRetransmit(l *wiredLink, seq uint64, p *arqPending) {
	p.timer = w.k.After(w.cfg.ARQ.backoff(p.attempt), func() {
		if _, live := l.pending[seq]; !live {
			return
		}
		p.attempt++
		l.retransmits++
		w.transmitFrame(l, seq, p)
		w.armRetransmit(l, seq, p)
	})
}

// transmitFrame is one physical transmission attempt of an ARQ frame. A
// shed attempt (full link queue) leaves the frame un-acked; the ARQ
// timeout re-offers it after the queue has had time to drain.
func (w *Wired) transmitFrame(l *wiredLink, seq uint64, p *arqPending) {
	frame := msg.LinkFrame{Seq: seq, Inner: p.m}
	f := w.fault(l.from, l.to, frame)
	if f.Drop {
		w.observe(EventDroppedLoss, l.from, l.to, frame)
		return
	}
	w.enqueue(l.from, l.to, frame, f, func() { w.receiveFrame(l, seq, p) })
}

// receiveFrame runs at the receiving end of an ARQ link. A frame that
// arrives at a down host is dropped un-acked, so it keeps retransmitting
// until the host restarts. Every accepted arrival is acked — including
// duplicates, whose first ack may have been lost.
func (w *Wired) receiveFrame(l *wiredLink, seq uint64, p *arqPending) {
	if w.cfg.Down != nil && w.cfg.Down(l.to) {
		w.observe(EventDroppedUnreachable, l.from, l.to, msg.LinkFrame{Seq: seq, Inner: p.m})
		return
	}
	w.sendAck(l, seq)
	if !l.recv.accept(seq) {
		return
	}
	f := p.frame
	p.frame = nil
	w.arrive(f)
}

// sendAck transmits a LinkAck on the reverse direction of the link. Ack
// frames are subject to the same faults; a lost ack just costs one
// retransmission. Acks are processed regardless of the original
// sender's up/down state: the link-layer state lives in the network
// fabric, not in the crashing host. Acking an unknown or already-acked
// sequence number is a no-op (a faulty link duplicates acks too).
func (w *Wired) sendAck(l *wiredLink, seq uint64) {
	ack := msg.LinkAck{Seq: seq}
	f := w.fault(l.to, l.from, ack)
	if f.Drop {
		w.observe(EventDroppedLoss, l.to, l.from, ack)
		return
	}
	w.enqueue(l.to, l.from, ack, f, func() {
		p, ok := l.pending[seq]
		if !ok {
			return
		}
		if p.timer != nil {
			p.timer.Cancel()
		}
		delete(l.pending, seq)
	})
}

// ARQStats sums link-layer retransmissions and still-outstanding
// (un-acked) frames over all links.
func (w *Wired) ARQStats() (retransmits int64, outstanding int) {
	for _, l := range w.links {
		retransmits += l.retransmits
		outstanding += len(l.pending)
	}
	return retransmits, outstanding
}

// arqReceiver is the receive half: at-most-once delivery by sequence
// number. Because the sender assigns contiguous numbers and every frame
// is eventually delivered, the seen-set is compacted into a contiguous
// watermark plus a (transient) set of out-of-order arrivals.
type arqReceiver struct {
	contig uint64 // every seq <= contig has been accepted
	ahead  map[uint64]bool
}

// accept reports whether seq is seen for the first time, recording it.
func (r *arqReceiver) accept(seq uint64) bool {
	if seq <= r.contig || r.ahead[seq] {
		return false
	}
	r.ahead[seq] = true
	for r.ahead[r.contig+1] {
		delete(r.ahead, r.contig+1)
		r.contig++
	}
	return true
}
