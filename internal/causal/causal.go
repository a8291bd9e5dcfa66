// Package causal implements causal-order point-to-point message delivery
// for a fixed group of processes: the Raynal–Schiper–Toueg (RST)
// delivery rule, with the matrix clock held as one send count per
// process and the group's per-channel send logs, so that a message
// costs one contiguous pass over n words instead of O(n²).
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
// Send counts: row k of every SENT matrix in the group has a single
// writer — process k, in Send — and only grows. Every copy of row k
// anywhere is therefore a past value of k's own row, named by k's send
// count when it was taken, its version; a matrix is a vector of n
// versions, and the merge is their element-wise maximum. The rule reads
// one cell of row k at version v: how many of k's first v sends went to
// the receiver j. RST delivers k's messages to j in send order, so
// "DELIV[k] covers that cell" is "the first k→j send j has not delivered
// is newer than v". The group keeps one send log per channel k→j — the
// versions of k's sends to j from the first one j has not delivered —
// and j keeps each log's head in a contiguous vector, so the rule is one
// pass comparing two vectors.
//
// A stamp names versions of rows the group keeps as logs, so it means
// something only to the group that wrote it. Both substrates run a group
// in one process — netsim on one kernel, tcpnet on one Net's dispatcher
// — just as they always shared one group's state between sender and
// receiver; a stamp read back from the wire is checked against that
// group (Endpoint.ParseStamp).
package causal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// none is the head of an empty send log: newer than every version.
const none = math.MaxUint64

// Stamp is the causal metadata piggybacked on each message: the sender
// and the versions of every SENT row it knew just after the send, so
// the sender's own version is this message's.
type Stamp struct {
	From int      // sending process index
	vers []uint64 // vers[k]: the version of k's row the sender knew
}

// stampHeader is the wire form's fixed prefix: from(4) n(4).
const stampHeader = 8

// AppendBinary appends the stamp's wire form to b: from(4) n(4), then
// the n versions as big-endian uint64s.
func (st Stamp) AppendBinary(b []byte) []byte {
	b = slices.Grow(b, stampHeader+len(st.vers)*8)
	b = binary.BigEndian.AppendUint32(b, uint32(st.From))
	b = binary.BigEndian.AppendUint32(b, uint32(len(st.vers)))
	for _, v := range st.vers {
		b = binary.BigEndian.AppendUint64(b, v)
	}
	return b
}

// ParseStamp decodes the wire form written by AppendBinary for e's
// group. Input that is truncated, oversized, built for another group
// size, names a sender outside the group or a version its owner has not
// reached is an error, so what it returns is always safe to hand to
// Receive at any endpoint of the group.
func (e *Endpoint) ParseStamp(b []byte) (Stamp, error) {
	n := len(e.know)
	if len(b) < stampHeader {
		return Stamp{}, errors.New("causal: stamp too short")
	}
	from := int(binary.BigEndian.Uint32(b))
	if nn := int(binary.BigEndian.Uint32(b[4:])); nn != n {
		return Stamp{}, fmt.Errorf("causal: stamp for a group of %d, want %d", nn, n)
	}
	if len(b)-stampHeader != n*8 {
		return Stamp{}, fmt.Errorf("causal: stamp body is %d bytes, want %d", len(b)-stampHeader, n*8)
	}
	if from < 0 || from >= n {
		return Stamp{}, fmt.Errorf("causal: stamp sender %d out of range [0,%d)", from, n)
	}
	vers := e.g.vec(n)
	for k, owner := range e.g.eps {
		vers[k] = binary.BigEndian.Uint64(b[stampHeader+8*k:])
		if sent := owner.know[k]; vers[k] > sent {
			return Stamp{}, fmt.Errorf("causal: stamp names send %d of process %d, which has sent %d", vers[k], k, sent)
		}
	}
	return Stamp{From: from, vers: vers}, nil
}

// pending is a received-but-not-yet-deliverable message.
type pending struct {
	st      Stamp
	payload any
}

// sendLog is one channel k→j: the versions of k's sends to j from the
// first one j has not delivered, oldest first, in a ring that starts in
// the log itself and grows only past its high-water mark.
type sendLog struct {
	ring    []uint64 // length a power of two
	head, n uint32
	// credit counts deliveries past the channel's sends, which only a
	// stamp handed to Receive twice (or a forged one) makes: RST's DELIV
	// then runs ahead of the sends, and the next sends count as
	// delivered at once.
	credit uint64
	// first is the ring until it outgrows it. No channel of
	// region_scale's count repetition held more than three entries, so
	// there this saves the ring's allocation (DESIGN §10).
	first [4]uint64
}

func (l *sendLog) at(i uint32) uint64 { return l.ring[(l.head+i)&uint32(len(l.ring)-1)] }

func (l *sendLog) push(v uint64) {
	if int(l.n) == len(l.ring) {
		ring := make([]uint64, 2*len(l.ring))
		for i := range l.n {
			ring[i] = l.at(i)
		}
		l.ring, l.head = ring, 0
	}
	l.ring[(l.head+l.n)&uint32(len(l.ring)-1)] = v
	l.n++
}

// group is what a group's endpoints share: each other, for the send
// logs kept at the receiver, the logs not yet taken by a channel, the
// delivery callback and, when pooled, the free stamp vectors. A group
// runs on one goroutine (the simulation kernel's, or a region's under
// psim), so nothing here needs a lock.
type group struct {
	eps     []*Endpoint
	logs    []sendLog
	deliver func(dst int, payload any)
	pooled  bool
	vecs    [][]uint64
}

// logSlab is how many channel logs the group allocates at once; a
// channel takes one at its first send. region_scale sets up 2 680
// channels in a run, one per 21 results, so logs allocated one by one
// would cost it 2 % more allocations per result (DESIGN §10).
const logSlab = 16

func (g *group) newLog() *sendLog {
	if len(g.logs) == 0 {
		g.logs = make([]sendLog, logSlab)
	}
	l := &g.logs[0]
	g.logs = g.logs[1:]
	l.ring = l.first[:]
	return l
}

// vec returns a version vector for a stamp, recycled when pooled.
func (g *group) vec(n int) []uint64 {
	if k := len(g.vecs); k > 0 {
		v := g.vecs[k-1]
		g.vecs = g.vecs[:k-1]
		return v
	}
	return make([]uint64, n)
}

// Endpoint is one process's view of the causal group. Endpoints are not
// safe for concurrent use, and neither is a group: the simulation
// kernel serializes access, and tcpnet touches its group only from the
// runtime's dispatcher.
type Endpoint struct {
	idx    int
	know   []uint64   // know[k]: the newest version of k's row merged here; know[idx] counts own sends
	next   []uint64   // next[k]: the version of the first k→idx send not delivered here, or none
	in     []*sendLog // in[k]: channel k→idx; allocated on the first send over it
	buffer []pending  // held-back messages, in arrival order
	g      *group
}

// Option configures a causal group.
type Option func(*group)

// Pooled enables recycling of stamp vectors through a group-shared free
// list, so the steady state allocates nothing per message (held-back
// messages wait by value in their endpoint's buffer, which keeps its
// array, pooled or not). A delivered stamp's vector goes back to the list at once,
// which is only sound when every stamp handed to Receive is delivered
// AT MOST ONCE: a transport that can duplicate a delivery (two Receive
// calls sharing one Stamp) would read a vector that a later Send has
// rewritten. Callers must leave pooling off on such paths (netsim
// disables it when faults can duplicate frames below a deduplicating
// ARQ). A stamp that is never delivered is harmless: its vector simply
// never reaches the free list and is left to the GC.
func Pooled(on bool) Option {
	return func(g *group) { g.pooled = on }
}

// Group creates n endpoints forming one causal group. deliver is invoked
// on each endpoint's behalf when a message becomes deliverable, with the
// destination endpoint's index.
func Group(n int, deliver func(dst int, payload any), opts ...Option) []*Endpoint {
	g := &group{eps: make([]*Endpoint, n), deliver: deliver}
	for _, o := range opts {
		o(g)
	}
	for i := range g.eps {
		clock := make([]uint64, 2*n)
		next := clock[n:]
		for k := range next {
			next[k] = none
		}
		g.eps[i] = &Endpoint{idx: i, know: clock[:n:n], next: next, g: g}
	}
	return slices.Clone(g.eps)
}

// Index returns the endpoint's process index within the group.
func (e *Endpoint) Index() int { return e.idx }

// log returns channel k→e, allocating it on first use.
func (e *Endpoint) log(k int) *sendLog {
	if e.in == nil {
		e.in = make([]*sendLog, len(e.know))
	}
	l := e.in[k]
	if l == nil {
		l = e.g.newLog()
		e.in[k] = l
	}
	return l
}

// Send records a send from this endpoint to process dst and returns the
// stamp to piggyback on the message. dst must be a valid process index.
func (e *Endpoint) Send(dst int) Stamp {
	n := len(e.know)
	if dst < 0 || dst >= n {
		panic(fmt.Sprintf("causal: destination %d out of range [0,%d)", dst, n))
	}
	e.know[e.idx]++
	v := e.know[e.idx]
	r := e.g.eps[dst]
	if l := r.log(e.idx); l.credit > 0 {
		l.credit--
	} else {
		if l.n == 0 {
			r.next[e.idx] = v
		}
		l.push(v)
	}
	vers := e.g.vec(n)
	copy(vers, e.know)
	return Stamp{From: e.idx, vers: vers}
}

// Receive hands an arrived message to the endpoint. If the causal
// delivery condition holds it is delivered immediately (and buffered
// messages that become deliverable are flushed, in arrival order);
// otherwise it is buffered. The stamp must come from a Send in this
// group or from its ParseStamp.
func (e *Endpoint) Receive(st Stamp, payload any) {
	if len(st.vers) != len(e.know) {
		panic(fmt.Sprintf("causal: stamp for a group of %d received in a group of %d", len(st.vers), len(e.know)))
	}
	// Nothing buffered is deliverable between calls (flush runs to a
	// fixed point, only a delivery retires a log entry, and a send only
	// adds a newer one), so the arrival is the one candidate: deliver it
	// without a buffer entry, or hold it back and leave the rest alone.
	if e.deliverable(st) {
		e.accept(st, payload)
		e.flush()
		return
	}
	e.buffer = append(e.buffer, pending{st, payload})
}

// deliverable reports whether the RST condition holds for st at e: e
// has delivered every message to itself the sender knew of. For k other
// than the sender that is k's first undelivered send here being newer
// than the stamp's version of k; the sender's may be this message
// itself, so there it is the send after it that must be newer.
func (e *Endpoint) deliverable(st Stamp) bool {
	next := e.next[:len(st.vers)]
	for k, v := range st.vers {
		if next[k] <= v && (k != st.From || e.in[k].n > 1 && e.in[k].at(1) <= v) {
			return false
		}
	}
	return true
}

// blockedBy returns how many more of k's messages e must deliver before
// a message stamped st may be: the sends over channel k→e not delivered
// and no newer than the stamp's version of k, the message itself
// excepted.
func (e *Endpoint) blockedBy(st Stamp, k int) uint64 {
	v := st.vers[k]
	if e.next[k] > v {
		return 0
	}
	l, c := e.in[k], uint32(1) // the head is no newer than v
	for c < l.n && l.at(c) <= v {
		c++
	}
	if k == st.From {
		c--
	}
	return uint64(c)
}

// accept delivers one message: it retires the channel's oldest
// undelivered send, merges the stamp's versions into the endpoint's and
// hands the payload up. The endpoint's own version is never older than
// a copy of it.
func (e *Endpoint) accept(st Stamp, payload any) {
	switch l := e.log(st.From); l.n {
	case 0:
		l.credit++
	case 1:
		l.n = 0
		e.next[st.From] = none
	default:
		l.head, l.n = (l.head+1)&uint32(len(l.ring)-1), l.n-1
		e.next[st.From] = l.ring[l.head]
	}
	know := e.know[:len(st.vers)]
	for k, v := range st.vers {
		know[k] = max(know[k], v)
	}
	if e.g.pooled {
		// The stamp is dead once its message is delivered (see Pooled
		// for the at-most-once requirement this relies on).
		e.g.vecs = append(e.g.vecs, st.vers)
	}
	e.g.deliver(e.idx, payload)
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
		e.buffer = slices.Delete(e.buffer, i, i+1) // zeroes the vacated slot
		e.accept(p.st, p.payload)
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
		for k := range p.st.vers {
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
