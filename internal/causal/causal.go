// Package causal implements causal-order point-to-point message delivery
// for a fixed group of processes: the Raynal–Schiper–Toueg (RST)
// delivery rule, with the matrix clock held as references to shared,
// versioned rows so that a message costs O(n) instead of O(n²).
//
// The paper's system model (assumption 1) requires that "communication
// among the MSSs is reliable and message delivery is in causal order";
// the exactly-once argument of §5 leans on it directly (the Ack forwarded
// by the old MSS must reach the proxy before the new MSS's
// update_currentLoc). Rather than assuming the property, this package
// provides it over any reliable FIFO-less transport, and lets experiment
// E2 switch it off to demonstrate the duplicate deliveries the paper
// predicts.
//
// RST sketch: every process i keeps SENT[j][k] — the number of messages
// sent from j to k that i knows about — and DELIV[j], the number of
// messages from j it has delivered. A message from i to j piggybacks i's
// SENT matrix; the receiver delays delivery until DELIV[k] >=
// SENT[k][receiver] for every k (not counting the message itself), i.e.
// until it has delivered every message destined to it that the sender
// knew about. On delivery the receiver merges the piggybacked matrix
// into its own by element-wise maximum.
//
// Row references: row k of every SENT matrix in the group has a single
// writer — process k, in Send — and only grows. Every copy of row k
// anywhere is therefore a past value of k's own row, any two copies are
// ordered, and the later one is their element-wise maximum. So a matrix
// is n references to immutable rows, each tagged with its owner's send
// count; Send writes one new own row (n words), the stamp is a vector
// of n references, and the merge is "keep the reference with the higher
// count" — no matrix is ever copied or scanned.
package causal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// row is one immutable value of a process's SENT row.
type row struct {
	ver  uint64   // the owner's total send count when it wrote this value
	cnt  []uint64 // cnt[k]: messages the owner had sent to process k
	refs int      // endpoints and undelivered stamps holding it (pooled groups)
}

// Stamp is the causal metadata piggybacked on each message: the sender
// and its SENT matrix taken just after the send, so the sender's own row
// already counts this message.
type Stamp struct {
	From int // sending process index
	rows []*row
}

// stampHeader is the wire form's fixed prefix: from(4) n(4).
const stampHeader = 8

// AppendBinary appends the stamp's wire form to b: from(4) n(4), then
// the n×n SENT matrix row by row as big-endian uint64s.
func (st Stamp) AppendBinary(b []byte) []byte {
	b = slices.Grow(b, stampHeader+len(st.rows)*len(st.rows)*8)
	b = binary.BigEndian.AppendUint32(b, uint32(st.From))
	b = binary.BigEndian.AppendUint32(b, uint32(len(st.rows)))
	for _, r := range st.rows {
		for _, c := range r.cnt {
			b = binary.BigEndian.AppendUint64(b, c)
		}
	}
	return b
}

// ParseStamp decodes the wire form written by AppendBinary for a group
// of n processes. Input that is truncated, oversized, built for another
// group size or names a sender outside the group is an error, so what
// it returns is always safe to hand to Receive.
func ParseStamp(b []byte, n int) (Stamp, error) {
	if len(b) < stampHeader {
		return Stamp{}, errors.New("causal: stamp too short")
	}
	from := int(binary.BigEndian.Uint32(b))
	if nn := int(binary.BigEndian.Uint32(b[4:])); nn != n {
		return Stamp{}, fmt.Errorf("causal: stamp for a group of %d, want %d", nn, n)
	}
	if len(b)-stampHeader != n*n*8 {
		return Stamp{}, fmt.Errorf("causal: stamp body is %d bytes, want %d", len(b)-stampHeader, n*n*8)
	}
	if from < 0 || from >= n {
		return Stamp{}, fmt.Errorf("causal: stamp sender %d out of range [0,%d)", from, n)
	}
	b = b[stampHeader:]
	cnt := make([]uint64, n*n)
	rows := make([]row, n)
	st := Stamp{From: from, rows: make([]*row, n)}
	for k := range rows {
		r := &rows[k]
		r.cnt = cnt[k*n : (k+1)*n : (k+1)*n]
		for j := range r.cnt {
			r.cnt[j] = binary.BigEndian.Uint64(b)
			b = b[8:]
			// A row's version is its owner's send count, which the
			// matrix already carries.
			r.ver += r.cnt[j]
		}
		r.refs = 1 // the stamp's own hold
		st.rows[k] = r
	}
	return st, nil
}

// Deliver is the callback invoked when a buffered message becomes
// deliverable. The payload is whatever was passed to Endpoint.Receive.
type Deliver func(payload any)

// pending is a received-but-not-yet-deliverable message.
type pending struct {
	st      Stamp
	payload any
}

// pool recycles the per-message allocations of a causal group: the row
// and the reference vector each Send writes and the buffer entry a
// held-back Receive creates. A group runs on one goroutine (the
// simulation kernel's, or a region's under psim), so the free lists
// need no lock.
type pool struct {
	rows []*row
	vecs [][]*row
	pend []*pending
}

// rowSlab is how many rows an empty free list grows by at once; they
// share two allocations, which keeps a group's warm-up cheap.
const rowSlab = 8

// takeRow pops a free row for a group of n, growing the list if empty.
func (p *pool) takeRow(n int) *row {
	if len(p.rows) == 0 {
		rows := make([]row, rowSlab)
		cnt := make([]uint64, rowSlab*n)
		for i := range rows {
			rows[i].cnt = cnt[i*n : (i+1)*n : (i+1)*n]
			p.rows = append(p.rows, &rows[i])
		}
	}
	k := len(p.rows) - 1
	r := p.rows[k]
	p.rows = p.rows[:k]
	return r
}

// release drops one hold on r and recycles it when that was the last.
func (p *pool) release(r *row) {
	r.refs--
	if r.refs == 0 {
		p.rows = append(p.rows, r)
	}
}

// Endpoint is one process's view of the causal group. Endpoints are not
// safe for concurrent use, and neither is a group: the simulation
// kernel serializes access, and tcpnet touches its group only from the
// runtime's dispatcher.
type Endpoint struct {
	idx     int
	n       int
	rows    []*row // rows[k]: the latest value of k's SENT row known here
	deliv   []uint64
	buffer  []*pending // held-back messages, in arrival order
	deliver Deliver
	pool    *pool // non-nil when recycling is enabled for the group
}

// Option configures a causal group.
type Option func(*groupConfig)

type groupConfig struct {
	pooled bool
}

// Pooled enables recycling of rows, stamp vectors and buffer entries
// through a group-shared free list, so the steady state allocates
// nothing per message. Each row counts its holders — the endpoints
// whose matrix references it and the stamps in flight that do — and
// returns to the free list when the last one lets go. The count is only
// sound when every stamp handed to Receive is delivered AT MOST ONCE: a
// transport that can duplicate a delivery (two Receive calls sharing
// one Stamp) would drop the stamp's holds twice and recycle rows that
// are still referenced. Callers must leave pooling off on such paths
// (netsim disables it when faults can duplicate frames below a
// deduplicating ARQ). A stamp that is never delivered is harmless: its
// rows simply never reach the free list and are left to the GC.
func Pooled(on bool) Option {
	return func(c *groupConfig) { c.pooled = on }
}

// Group creates n endpoints forming one causal group. deliver is invoked
// on each endpoint's behalf when a message becomes deliverable, with the
// destination endpoint's index.
func Group(n int, deliver func(dst int, payload any), opts ...Option) []*Endpoint {
	var cfg groupConfig
	for _, o := range opts {
		o(&cfg)
	}
	var pl *pool
	if cfg.pooled {
		pl = new(pool)
	}
	// Everyone starts from the same all-zero matrix: n shared rows.
	zero := make([]*row, n)
	for k := range zero {
		zero[k] = &row{cnt: make([]uint64, n), refs: n}
	}
	eps := make([]*Endpoint, n)
	for i := 0; i < n; i++ {
		i := i
		eps[i] = &Endpoint{
			idx:     i,
			n:       n,
			rows:    append([]*row(nil), zero...),
			deliv:   make([]uint64, n),
			deliver: func(p any) { deliver(i, p) },
			pool:    pl,
		}
	}
	return eps
}

// Index returns the endpoint's process index within the group.
func (e *Endpoint) Index() int { return e.idx }

// Send records a send from this endpoint to process dst and returns the
// stamp to piggyback on the message. dst must be a valid process index.
func (e *Endpoint) Send(dst int) Stamp {
	if dst < 0 || dst >= e.n {
		panic(fmt.Sprintf("causal: destination %d out of range [0,%d)", dst, e.n))
	}
	// Copy-on-write: stamps in flight and other endpoints may still
	// reference the current value of the own row.
	old := e.rows[e.idx]
	var own *row
	var vec []*row
	pl := e.pool
	if pl != nil {
		own = pl.takeRow(e.n)
		if k := len(pl.vecs); k > 0 {
			vec, pl.vecs = pl.vecs[k-1], pl.vecs[:k-1]
		}
	} else {
		own = &row{cnt: make([]uint64, e.n)}
	}
	if vec == nil {
		vec = make([]*row, e.n)
	}
	copy(own.cnt, old.cnt)
	own.cnt[dst]++
	own.ver = old.ver + 1
	e.rows[e.idx] = own
	copy(vec, e.rows)
	if pl != nil {
		own.refs = 1 // this endpoint's hold; the loop adds the stamp's
		for _, r := range vec {
			r.refs++
		}
		pl.release(old)
	}
	return Stamp{From: e.idx, rows: vec}
}

// Receive hands an arrived message to the endpoint. If the causal
// delivery condition holds it is delivered immediately (and buffered
// messages that become deliverable are flushed, in arrival order);
// otherwise it is buffered. The stamp must come from a Send in this
// group or from ParseStamp with the group's size.
func (e *Endpoint) Receive(st Stamp, payload any) {
	if len(st.rows) != e.n {
		panic(fmt.Sprintf("causal: stamp for a group of %d received in a group of %d", len(st.rows), e.n))
	}
	// Nothing buffered is deliverable between calls (flush runs to a
	// fixed point and only a delivery changes DELIV), so the arrival is
	// the one candidate: deliver it without a buffer entry, or hold it
	// back and leave the rest alone.
	if e.deliverable(st) {
		e.accept(st, payload)
		e.flush()
		return
	}
	var p *pending
	if pl := e.pool; pl != nil && len(pl.pend) > 0 {
		k := len(pl.pend) - 1
		p, pl.pend = pl.pend[k], pl.pend[:k]
	} else {
		p = new(pending)
	}
	p.st, p.payload = st, payload
	e.buffer = append(e.buffer, p)
}

// blockedBy returns how many more of k's messages e must deliver before
// a message stamped st may be: the shortfall of DELIV[k] against the
// stamp's count of k's sends to e, the message itself excepted.
func (e *Endpoint) blockedBy(st Stamp, k int) uint64 {
	have := e.deliv[k]
	if k == st.From {
		have++
	}
	if want := st.rows[k].cnt[e.idx]; want > have {
		return want - have
	}
	return 0
}

// deliverable reports whether the RST condition holds for st at e:
// e has delivered every message to itself the sender knew of.
func (e *Endpoint) deliverable(st Stamp) bool {
	for k := range st.rows {
		if e.blockedBy(st, k) != 0 {
			return false
		}
	}
	return true
}

// accept delivers one message: it counts the delivery, merges the
// stamp's matrix into the endpoint's and hands the payload up. A stamp
// row newer than the one held here replaces it — the stamp's hold
// becomes the endpoint's — and whichever of the two is let go loses a
// holder. The endpoint's own row is never older than a copy of it.
func (e *Endpoint) accept(st Stamp, payload any) {
	e.deliv[st.From]++
	pl := e.pool
	for k, r := range st.rows {
		if mine := e.rows[k]; r.ver > mine.ver {
			e.rows[k] = r
			r = mine
		}
		if pl != nil {
			pl.release(r)
		}
	}
	if pl != nil {
		// The stamp is dead once its message is delivered (see Pooled
		// for the at-most-once requirement this relies on).
		pl.vecs = append(pl.vecs, st.rows)
	}
	e.deliver(payload)
}

// flush delivers buffered messages until none is deliverable. Among
// simultaneously deliverable (hence concurrent) messages, arrival order
// wins, keeping the simulation deterministic.
func (e *Endpoint) flush() {
	for i := 0; i < len(e.buffer); {
		p := e.buffer[i]
		if !e.deliverable(p.st) {
			i++
			continue
		}
		e.buffer = append(e.buffer[:i], e.buffer[i+1:]...)
		st, payload := p.st, p.payload
		if e.pool != nil {
			p.st, p.payload = Stamp{}, nil
			e.pool.pend = append(e.pool.pend, p)
		}
		e.accept(st, payload)
		i = 0 // the delivery may have released an earlier arrival
	}
}

// Queued returns the number of messages currently waiting in the delay
// buffer (used by tests and the E2 ablation report).
func (e *Endpoint) Queued() int { return len(e.buffer) }

// QueuedPayloads returns the buffered (undeliverable) payloads together
// with the dependency that blocks each: the sender index and how many
// more of that sender's messages must be delivered first. Diagnostic.
func (e *Endpoint) QueuedPayloads() []QueuedInfo {
	out := make([]QueuedInfo, 0, len(e.buffer))
	for _, p := range e.buffer {
		info := QueuedInfo{From: p.st.From, Payload: p.payload}
		for k := range p.st.rows {
			if missing := e.blockedBy(p.st, k); missing != 0 {
				info.BlockedOn = append(info.BlockedOn, k)
				info.Missing = append(info.Missing, missing)
			}
		}
		out = append(out, info)
	}
	return out
}

// QueuedInfo describes one blocked message (see QueuedPayloads).
type QueuedInfo struct {
	From      int
	Payload   any
	BlockedOn []int
	Missing   []uint64
}
