// Package ids defines the typed identifiers used throughout the RDP
// implementation: mobile hosts, mobile support stations, application
// servers, proxies and requests.
//
// Identifiers are small value types, embedded in wire messages without
// allocation. The zero value of every identifier type is reserved as
// "none"/"invalid"; valid identifiers are numbered starting at 1 (see
// NodeKind for the rationale). Host, station and request sequence
// numbers are dense from 1, so they index rather than hash: per-entity
// state belongs on the entity (a host's device state on its node, its
// requests in a table indexed by sequence number), not in a map keyed by
// the identifier beside it.
package ids

import "strconv"

// NodeKind discriminates the kind of a system node.
type NodeKind uint8

// Node kinds. The zero value is KindNone so an uninitialized NodeID is
// recognizably invalid.
const (
	KindNone NodeKind = iota
	KindMH            // mobile host
	KindMSS           // mobile support station
	KindServer
)

// String returns the short kind tag used in textual traces.
func (k NodeKind) String() string {
	switch k {
	case KindMH:
		return "mh"
	case KindMSS:
		return "mss"
	case KindServer:
		return "srv"
	default:
		return "none"
	}
}

type (
	// MH identifies a mobile host. MHs have a system-wide unique
	// identification (paper §2).
	MH uint32

	// MSS identifies a mobile support station, and thereby also the
	// geographic cell it serves (paper §2).
	MSS uint32

	// Server identifies an application server on the wired network.
	// Servers maintain a fixed address obtainable from the directory
	// service (paper §2).
	Server uint32
)

// None values for each identifier type.
const (
	NoMH     MH     = 0
	NoMSS    MSS    = 0
	NoServer Server = 0
)

// Valid reports whether the identifier denotes an actual mobile host.
func (m MH) Valid() bool { return m != NoMH }

// Valid reports whether the identifier denotes an actual support station.
func (s MSS) Valid() bool { return s != NoMSS }

// Valid reports whether the identifier denotes an actual server.
func (s Server) Valid() bool { return s != NoServer }

// String returns e.g. "mh3".
func (m MH) String() string { return "mh" + strconv.FormatUint(uint64(m), 10) }

// String returns e.g. "mss2".
func (s MSS) String() string { return "mss" + strconv.FormatUint(uint64(s), 10) }

// String returns e.g. "srv1".
func (s Server) String() string { return "srv" + strconv.FormatUint(uint64(s), 10) }

// Node returns the transport address of the mobile host.
func (m MH) Node() NodeID { return NodeID{Kind: KindMH, Num: uint32(m)} }

// Node returns the transport address of the support station.
func (s MSS) Node() NodeID { return NodeID{Kind: KindMSS, Num: uint32(s)} }

// Node returns the transport address of the server.
func (s Server) Node() NodeID { return NodeID{Kind: KindServer, Num: uint32(s)} }

// NodeID is the transport-level address of any node in the system. It is
// comparable and therefore usable as a map key.
type NodeID struct {
	Kind NodeKind
	Num  uint32
}

// NoNode is the zero, invalid node address.
var NoNode = NodeID{}

// Valid reports whether the address denotes an actual node.
func (n NodeID) Valid() bool { return n.Kind != KindNone }

// String returns e.g. "mss2", "mh7", "srv1" or "none".
func (n NodeID) String() string {
	if n.Kind == KindNone {
		return "none"
	}
	return n.Kind.String() + strconv.FormatUint(uint64(n.Num), 10)
}

// MH converts the address back to a mobile-host identifier; it returns
// NoMH if the address is not a mobile host.
func (n NodeID) MH() MH {
	if n.Kind != KindMH {
		return NoMH
	}
	return MH(n.Num)
}

// MSS converts the address back to a support-station identifier; it
// returns NoMSS if the address is not a support station.
func (n NodeID) MSS() MSS {
	if n.Kind != KindMSS {
		return NoMSS
	}
	return MSS(n.Num)
}

// Server converts the address back to a server identifier; it returns
// NoServer if the address is not a server.
func (n NodeID) Server() Server {
	if n.Kind != KindServer {
		return NoServer
	}
	return Server(n.Num)
}

// ProxyID identifies one incarnation of a proxy object. A proxy is hosted
// at an MSS; Seq disambiguates successive proxies created at the same
// station so that stale references are detectable (paper §3.1: the pref
// contains "the address of the MSS and a proxyID").
type ProxyID struct {
	Host MSS
	Seq  uint32
}

// NoProxy is the zero, invalid proxy identifier (a pref holding NoProxy
// is the paper's "null address").
var NoProxy = ProxyID{}

// Valid reports whether the identifier denotes an actual proxy.
func (p ProxyID) Valid() bool { return p.Host.Valid() }

// String returns e.g. "proxy(mss2#1)".
func (p ProxyID) String() string {
	if !p.Valid() {
		return "proxy(nil)"
	}
	return "proxy(" + p.Host.String() + "#" + strconv.FormatUint(uint64(p.Seq), 10) + ")"
}

// RequestID identifies a service request issued by a mobile host. Seq is
// assigned by the MH and is unique per MH, which also gives the MH its
// duplicate-detection capability (paper assumption 5).
type RequestID struct {
	Origin MH
	Seq    uint32
}

// NoRequest is the zero, invalid request identifier.
var NoRequest = RequestID{}

// Valid reports whether the identifier denotes an actual request.
func (r RequestID) Valid() bool { return r.Origin.Valid() }

// String returns e.g. "req(mh3#7)".
func (r RequestID) String() string {
	if !r.Valid() {
		return "req(nil)"
	}
	return "req(" + r.Origin.String() + "#" + strconv.FormatUint(uint64(r.Seq), 10) + ")"
}

// Less orders request identifiers first by origin, then by sequence
// number. It provides a stable order for deterministic iteration.
func (r RequestID) Less(o RequestID) bool {
	if r.Origin != o.Origin {
		return r.Origin < o.Origin
	}
	return r.Seq < o.Seq
}

// Incarnation numbers a mobile host's boot epoch. The counter lives in
// the host's non-volatile flash — it is the one datum an MH reboot does
// NOT lose — and increments monotonically on every restart after a
// crash. A host that never crashes stays at incarnation 1 forever.
// Requests, forwarded results and lease heartbeats carry the issuing
// incarnation so stations and proxies can recognize traffic that
// belongs to a dead (pre-crash) epoch of the host and refuse to deliver
// it (E18's amnesia guarantee: a rebooted host, having lost its
// duplicate-detection seen-set, must never be handed a result its
// previous self asked for).
type Incarnation uint32

// FirstIncarnation is the boot epoch of a host that has never crashed.
// Incarnation 0 is reserved as "unknown" (legacy traffic from code
// paths that predate incarnation tracking is treated as first-epoch).
const FirstIncarnation Incarnation = 1

// String returns e.g. "inc2".
func (i Incarnation) String() string {
	return "inc" + strconv.FormatUint(uint64(i), 10)
}

// BatchID identifies an atomic request batch opened by a mobile host.
// Like RequestID, Seq is assigned by the origin MH and is unique per MH,
// so a batch is identifiable across hand-offs, proxy migrations and
// MSS crashes without any global coordination.
type BatchID struct {
	Origin MH
	Seq    uint32
}

// NoBatch is the zero, invalid batch identifier. A request carrying
// NoBatch is an ordinary, non-batched request.
var NoBatch = BatchID{}

// Valid reports whether the identifier denotes an actual batch.
func (b BatchID) Valid() bool { return b.Origin.Valid() }

// String returns e.g. "batch(mh3#7)".
func (b BatchID) String() string {
	if !b.Valid() {
		return "batch(nil)"
	}
	return "batch(" + b.Origin.String() + "#" + strconv.FormatUint(uint64(b.Seq), 10) + ")"
}

// Less orders batch identifiers first by origin, then by sequence
// number, mirroring RequestID.Less for deterministic iteration.
func (b BatchID) Less(o BatchID) bool {
	if b.Origin != o.Origin {
		return b.Origin < o.Origin
	}
	return b.Seq < o.Seq
}
