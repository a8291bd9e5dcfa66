// Package tcpnet runs the RDP substrates over real TCP sockets. The
// paper's authors planned to evaluate RDP as "distributed processes ...
// within a Linux network"; this package is that prototype: every
// station and server listens on its own loopback TCP endpoint, protocol
// messages travel as length-prefixed frames in the msg package's binary
// encoding, and the unchanged rdpcore state machines run on top (their
// handlers executed on a livenet runtime, which serializes them exactly
// as the authors' per-process event loops would).
//
// Wired messages additionally carry causal stamps (assumption 1 —
// per-connection TCP FIFO alone does not give cross-host causal order).
// Wireless frames also ride TCP here, with the radio semantics —
// delivery gated on cell membership and activity — enforced at the
// receiving edge, mirroring netsim.
//
// TCP is the reliable link here: there is no link-layer ARQ, windowed
// radio transport, queue bound or fault injector on this substrate —
// those exist once, in netsim, and rdp.NewTCPWorld rejects a Config that
// asks for them.
package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/causal"
	"repro/internal/ids"
	"repro/internal/livenet"
	"repro/internal/msg"
	"repro/internal/netsim"
)

// frame layout: layer(1) fromKind(1) fromNum(4) toKind(1) toNum(4)
// stampLen(4) stamp msgLen(4) msg. A non-empty stamp is the causal
// package's wire form (causal.Stamp.AppendBinary); framing carries it
// as opaque bytes and the dispatcher parses it against the network's
// group, whose send logs its versions name.

// Net is one in-process "network" of TCP endpoints. All handler
// execution is posted to the runtime's dispatcher, so protocol state
// needs no locking — the same discipline as the simulation kernel.
type Net struct {
	rt      *livenet.Runtime
	members []ids.NodeID
	index   map[ids.NodeID]int

	mu        sync.Mutex
	addrs     map[ids.NodeID]string
	listeners []net.Listener
	conns     map[connKey]net.Conn
	closed    bool

	eps []*causal.Endpoint // wired causal layer (dispatcher-only access)

	wiredHandlers map[ids.NodeID]netsim.Handler
	mhHandlers    map[ids.MH]netsim.Handler
	mssHandlers   map[ids.MSS]netsim.Handler

	reachable func(ids.MSS, ids.MH) bool

	stats struct {
		sync.Mutex
		wiredFrames, wiredBytes       uint64
		wirelessFrames, wirelessBytes uint64
		badStamps                     uint64
	}
}

// Stats reports cumulative wire-level traffic: frames and bytes written
// to TCP connections, per substrate. Bytes include the frame header and
// (for wired traffic) the causal stamp, so the wired figure measures
// the real cost of assumption 1 on this deployment.
type Stats struct {
	WiredFrames, WiredBytes       uint64
	WirelessFrames, WirelessBytes uint64
	// BadStamps counts received wired frames dropped because their
	// causal stamp did not parse for this network's group (malformed,
	// built for a group of another size, or naming a send the group
	// has not made).
	BadStamps uint64
}

// Stats returns a snapshot of the wire-level counters.
func (n *Net) Stats() Stats {
	n.stats.Lock()
	defer n.stats.Unlock()
	return Stats{
		WiredFrames: n.stats.wiredFrames, WiredBytes: n.stats.wiredBytes,
		WirelessFrames: n.stats.wirelessFrames, WirelessBytes: n.stats.wirelessBytes,
		BadStamps: n.stats.badStamps,
	}
}

func (n *Net) countFrame(layer netsim.Layer, bytes int) {
	n.stats.Lock()
	defer n.stats.Unlock()
	if layer == netsim.LayerWired {
		n.stats.wiredFrames++
		n.stats.wiredBytes += uint64(bytes)
	} else {
		n.stats.wirelessFrames++
		n.stats.wirelessBytes += uint64(bytes)
	}
}

type connKey struct{ from, to ids.NodeID }

// New creates a network for a fixed set of wired members (stations and
// servers). Mobile hosts need no endpoint of their own: their radio
// traffic terminates at their current station's endpoint, as it would
// in a real cell.
func New(rt *livenet.Runtime, members []ids.NodeID) *Net {
	n := &Net{
		rt:            rt,
		members:       append([]ids.NodeID(nil), members...),
		index:         make(map[ids.NodeID]int, len(members)),
		addrs:         make(map[ids.NodeID]string, len(members)),
		conns:         make(map[connKey]net.Conn),
		wiredHandlers: make(map[ids.NodeID]netsim.Handler),
		mhHandlers:    make(map[ids.MH]netsim.Handler),
		mssHandlers:   make(map[ids.MSS]netsim.Handler),
	}
	for i, m := range members {
		n.index[m] = i
	}
	n.eps = causal.Group(len(members), func(dst int, payload any) {
		p := payload.(wiredDelivery)
		h := n.wiredHandlers[p.to]
		if h != nil {
			h.HandleMessage(p.from, p.m)
		}
	})
	return n
}

type wiredDelivery struct {
	from ids.NodeID
	to   ids.NodeID
	m    msg.Message
}

// SetReachable installs the radio gate (the world's cell/activity
// oracle). Must be set before traffic flows.
func (n *Net) SetReachable(f func(ids.MSS, ids.MH) bool) { n.reachable = f }

// Start opens one loopback TCP listener per member and begins accepting.
func (n *Net) Start() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, m := range n.members {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("tcpnet: listen for %v: %w", m, err)
		}
		n.listeners = append(n.listeners, ln)
		n.addrs[m] = ln.Addr().String()
		go n.acceptLoop(ln)
	}
	return nil
}

// Close shuts the listeners and connections down.
func (n *Net) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
	for _, ln := range n.listeners {
		ln.Close()
	}
	for _, c := range n.conns {
		c.Close()
	}
}

// Addr returns the TCP address a member listens on (diagnostics).
func (n *Net) Addr(m ids.NodeID) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.addrs[m]
}

func (n *Net) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go n.readLoop(conn)
	}
}

func (n *Net) readLoop(conn net.Conn) {
	defer conn.Close()
	for {
		f, err := readFrame(conn)
		if err != nil {
			return
		}
		n.rt.Post(func() { n.dispatch(f) })
	}
}

// dispatch runs on the dispatcher goroutine.
func (n *Net) dispatch(f frame) {
	switch f.layer {
	case netsim.LayerWired:
		ti, ok := n.index[f.to]
		if !ok {
			return
		}
		p := wiredDelivery{from: f.from, to: f.to, m: f.m}
		if f.stamp != nil {
			st, err := n.eps[ti].ParseStamp(f.stamp)
			if err != nil {
				// A peer speaking for some other group: drop the frame,
				// keep the connection and the dispatcher.
				n.stats.Lock()
				n.stats.badStamps++
				n.stats.Unlock()
				return
			}
			n.eps[ti].Receive(st, p)
			return
		}
		if h := n.wiredHandlers[f.to]; h != nil {
			h.HandleMessage(f.from, f.m)
		}
	case netsim.LayerWireless:
		if f.to.Kind == ids.KindMH {
			// Downlink: the radio gate applies at delivery time.
			mh := f.to.MH()
			mss := f.from.MSS()
			if n.reachable == nil || !n.reachable(mss, mh) {
				return
			}
			if h := n.mhHandlers[mh]; h != nil {
				h.HandleMessage(f.from, f.m)
			}
			return
		}
		if h := n.mssHandlers[f.to.MSS()]; h != nil {
			h.HandleMessage(f.from, f.m)
		}
	}
}

// --- netsim.WiredTransport ---

// Send transmits a wired message with a causal stamp. It must be called
// from the dispatcher (protocol handlers always are).
func (n *Net) Send(from, to ids.NodeID, m msg.Message) {
	fi, ok := n.index[from]
	if !ok {
		panic(fmt.Sprintf("tcpnet: wired send from non-member %v", from))
	}
	ti, ok := n.index[to]
	if !ok {
		panic(fmt.Sprintf("tcpnet: wired send to non-member %v", to))
	}
	n.write(frame{
		layer: netsim.LayerWired, from: from, to: to, m: m,
		stamp: n.eps[fi].Send(ti).AppendBinary(nil),
	})
}

// Register implements netsim.WiredTransport.
func (n *Net) Register(node ids.NodeID, h netsim.Handler) {
	n.wiredHandlers[node] = h
}

// --- netsim.WirelessTransport ---

// SendDownlink transmits a radio frame to a mobile host. The frame is
// routed to the sending station's own endpoint and the radio gate —
// still in the cell, still active — applies at delivery time there,
// mirroring netsim's delivery-time reachability check.
func (n *Net) SendDownlink(from ids.MSS, to ids.MH, m msg.Message) {
	n.write(frame{layer: netsim.LayerWireless, from: from.Node(), to: to.Node(), m: m, via: from.Node()})
}

// SendUplink transmits from a mobile host to a station; like netsim,
// the radio gate applies at send time.
func (n *Net) SendUplink(from ids.MH, to ids.MSS, m msg.Message) {
	if n.reachable == nil || !n.reachable(to, from) {
		return
	}
	n.write(frame{layer: netsim.LayerWireless, from: from.Node(), to: to.Node(), m: m, via: to.Node()})
}

// RegisterMH implements netsim.WirelessTransport.
func (n *Net) RegisterMH(mh ids.MH, h netsim.Handler) { n.mhHandlers[mh] = h }

// RegisterMSS implements netsim.WirelessTransport.
func (n *Net) RegisterMSS(mss ids.MSS, h netsim.Handler) { n.mssHandlers[mss] = h }

var (
	_ netsim.WiredTransport    = (*Net)(nil)
	_ netsim.WirelessTransport = (*Net)(nil)
)

// write frames and sends a message over the (lazily dialed) connection
// toward the endpoint that must process it.
func (n *Net) write(f frame) {
	dest := f.to
	if f.via.Valid() {
		// Wireless frames terminate at the serving station's endpoint:
		// the radio is physically part of that cell.
		dest = f.via
	}
	conn, err := n.conn(f.from, dest)
	if err != nil {
		return // endpoint gone (shutdown)
	}
	bp := msg.GetBuffer()
	b, err := appendFrame(*bp, f)
	if err != nil {
		msg.PutBuffer(bp)
		panic(fmt.Sprintf("tcpnet: encode: %v", err))
	}
	*bp = b[:0]
	_, err = conn.Write(b)
	size := len(b)
	msg.PutBuffer(bp)
	if err != nil {
		n.dropConn(f.from, dest)
		return
	}
	n.countFrame(f.layer, size)
}

func (n *Net) conn(from, to ids.NodeID) (net.Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, errors.New("tcpnet: closed")
	}
	key := connKey{from: from, to: to}
	if c, ok := n.conns[key]; ok {
		return c, nil
	}
	addr, ok := n.addrs[to]
	if !ok {
		return nil, fmt.Errorf("tcpnet: no endpoint for %v", to)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	n.conns[key] = c
	return c, nil
}

func (n *Net) dropConn(from, to ids.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	key := connKey{from: from, to: to}
	if c, ok := n.conns[key]; ok {
		c.Close()
		delete(n.conns, key)
	}
}

// frame is one on-the-wire unit.
type frame struct {
	layer    netsim.Layer
	from, to ids.NodeID
	via      ids.NodeID // endpoint that terminates the frame (wireless)
	m        msg.Message
	stamp    []byte // causal stamp in wire form; nil on unstamped frames
}

// encodeFrame serializes a frame (header + stamp + message) into a
// fresh buffer. The write path uses appendFrame with a pooled buffer
// instead.
func encodeFrame(f frame) ([]byte, error) {
	return appendFrame(nil, f)
}

// appendFrame serializes a frame onto dst, writing the message body in
// place (behind a length placeholder patched afterwards) so framing
// needs no intermediate buffer for it.
func appendFrame(dst []byte, f frame) ([]byte, error) {
	out := dst
	out = append(out, byte(f.layer), byte(f.from.Kind))
	out = binary.BigEndian.AppendUint32(out, f.from.Num)
	out = append(out, byte(f.to.Kind))
	out = binary.BigEndian.AppendUint32(out, f.to.Num)
	out = binary.BigEndian.AppendUint32(out, uint32(len(f.stamp)))
	out = append(out, f.stamp...)
	bodyLenAt := len(out)
	out = binary.BigEndian.AppendUint32(out, 0)
	out, err := msg.AppendEncode(out, f.m)
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint32(out[bodyLenAt:], uint32(len(out)-bodyLenAt-4))
	return out, nil
}

// readFrame reads one frame from the stream.
func readFrame(r io.Reader) (frame, error) {
	var f frame
	head := make([]byte, 11)
	if _, err := io.ReadFull(r, head); err != nil {
		return f, err
	}
	f.layer = netsim.Layer(head[0])
	f.from = ids.NodeID{Kind: ids.NodeKind(head[1]), Num: binary.BigEndian.Uint32(head[2:])}
	f.to = ids.NodeID{Kind: ids.NodeKind(head[6]), Num: binary.BigEndian.Uint32(head[7:])}
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return f, err
	}
	stampLen := binary.BigEndian.Uint32(lenBuf[:])
	if stampLen > 1<<20 {
		return f, errors.New("tcpnet: stamp too large")
	}
	if stampLen > 0 {
		f.stamp = make([]byte, stampLen)
		if _, err := io.ReadFull(r, f.stamp); err != nil {
			return f, err
		}
	}
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return f, err
	}
	bodyLen := binary.BigEndian.Uint32(lenBuf[:])
	if bodyLen > 1<<24 {
		return f, errors.New("tcpnet: body too large")
	}
	body := make([]byte, bodyLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return f, err
	}
	m, err := msg.Decode(body)
	if err != nil {
		return f, err
	}
	f.m = m
	return f, nil
}
