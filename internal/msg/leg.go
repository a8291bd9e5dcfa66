package msg

import (
	"fmt"

	"repro/internal/ids"
)

// Leg is one message of the request path (§3.1) and the hand-off (§3.2)
// carried by value: the request path's eight kinds request, request-fwd,
// srv-request, srv-result, result-fwd, result, ack and ack-fwd, and the
// hand-off's four greet, dereg, deregack and update-currl, as the kind plus the
// union of their fields, with the payload as its only pointer. A hop
// that only moves a message hands the Leg on; whoever keeps it past its
// hop (an inbox, a hand-off buffer, a parked dereg, a queue, a host's
// re-sendable request, a frame in flight) copies it into an Envelope by
// value; a listener is shown a View of it and boxes nothing unless it
// keeps what it is shown (Keep). The zero Leg (KindInvalid) is no
// message.
type Leg struct {
	Kind Kind
	// Flag is the kind's one boolean: DelPref on ResultForward and
	// ResultDeliver, HaveOutstanding on AckMH, DelProxy on AckForward,
	// Stale on DeregAck.
	Flag   bool
	Inc    ids.Incarnation
	MH     ids.MH
	Server ids.Server
	// MSS is the hand-off's station: OldMSS on Greet, NewMSS on Dereg,
	// Holder on DeregAck, NewLoc on UpdateCurrentLoc.
	MSS ids.MSS
	// Proxy is also the pref's proxy on DeregAck, and Req the request
	// its RKpR names.
	Proxy ids.ProxyID
	Req   ids.RequestID
	// Mark is a sequence word in what would be padding: the proxy's Mark
	// on ResultForward, the station's Routed on a DeregAck that hands the
	// pref over, the host's registration Seq on Greet, Dereg and a stale
	// DeregAck.
	Mark    uint32
	Payload []byte
}

// Message boxes the leg as the message it carries: the one place a leg
// becomes a Message. It panics on a leg of no leg kind.
func (l Leg) Message() Message {
	switch l.Kind {
	case KindRequest:
		return l.Request()
	case KindRequestForward:
		return l.RequestForward()
	case KindServerRequest:
		return l.ServerRequest()
	case KindServerResult:
		return l.ServerResult()
	case KindResultForward:
		return l.ResultForward()
	case KindResultDeliver:
		return l.ResultDeliver()
	case KindAckMH:
		return l.AckMH()
	case KindAckForward:
		return l.AckForward()
	case KindGreet:
		return l.Greet()
	case KindDereg:
		return l.Dereg()
	case KindDeregAck:
		return l.DeregAck()
	case KindUpdateCurrentLoc:
		return l.UpdateCurrentLoc()
	}
	panic(fmt.Sprintf("msg: %v is not a leg kind", l.Kind))
}

// LegOf carries m as a leg, and reports false for a kind that is not one
// of the request path's eight or the hand-off's four. A View gives the
// leg it shows.
func LegOf(m Message) (Leg, bool) {
	if v, ok := m.(View); ok { // what every door is shown: one comparison
		return *v.l, true
	}
	switch v := m.(type) {
	case Request:
		return v.Leg(), true
	case RequestForward:
		return v.Leg(), true
	case ServerRequest:
		return v.Leg(), true
	case ServerResult:
		return v.Leg(), true
	case ResultForward:
		return v.Leg(), true
	case ResultDeliver:
		return v.Leg(), true
	case AckMH:
		return v.Leg(), true
	case AckForward:
		return v.Leg(), true
	case Greet:
		return v.Leg(), true
	case Dereg:
		return v.Leg(), true
	case DeregAck:
		return v.Leg(), true
	case UpdateCurrentLoc:
		return v.Leg(), true
	}
	return Leg{}, false
}

// The twelve kinds to a leg and back; the typed handlers take the value a
// leg converts to, unboxed.

func (m Request) Leg() Leg {
	return Leg{Kind: KindRequest, Req: m.Req, Server: m.Server, Payload: m.Payload, Inc: m.Inc}
}
func (m RequestForward) Leg() Leg {
	return Leg{Kind: KindRequestForward, Proxy: m.Proxy, Req: m.Req, Server: m.Server, Payload: m.Payload, Inc: m.Inc}
}
func (m ServerRequest) Leg() Leg {
	return Leg{Kind: KindServerRequest, Proxy: m.Proxy, Req: m.Req, Payload: m.Payload}
}
func (m ServerResult) Leg() Leg {
	return Leg{Kind: KindServerResult, Proxy: m.Proxy, Req: m.Req, Payload: m.Payload}
}
func (m ResultForward) Leg() Leg {
	return Leg{Kind: KindResultForward, Proxy: m.Proxy, MH: m.MH, Req: m.Req, Payload: m.Payload,
		Flag: m.DelPref, Mark: m.Mark, Inc: m.Inc}
}
func (m ResultDeliver) Leg() Leg {
	return Leg{Kind: KindResultDeliver, Req: m.Req, Payload: m.Payload, Flag: m.DelPref, Inc: m.Inc}
}
func (m AckMH) Leg() Leg {
	return Leg{Kind: KindAckMH, MH: m.MH, Req: m.Req, Flag: m.HaveOutstanding}
}
func (m AckForward) Leg() Leg {
	return Leg{Kind: KindAckForward, Proxy: m.Proxy, MH: m.MH, Req: m.Req, Flag: m.DelProxy}
}

func (m Greet) Leg() Leg {
	return Leg{Kind: KindGreet, MH: m.MH, MSS: m.OldMSS, Inc: m.Inc, Mark: m.Seq}
}
func (m Dereg) Leg() Leg {
	return Leg{Kind: KindDereg, MH: m.MH, MSS: m.NewMSS, Inc: m.Inc, Mark: m.Seq}
}
func (m DeregAck) Leg() Leg {
	if m.Stale {
		return Leg{Kind: KindDeregAck, MH: m.MH, Inc: m.Inc, Flag: true, MSS: m.Holder, Mark: m.Seq}
	}
	return Leg{Kind: KindDeregAck, MH: m.MH, Proxy: m.Pref.Proxy, Req: ids.RequestID{Origin: m.MH, Seq: m.Pref.RKpR},
		Mark: m.Routed, Inc: m.Inc}
}
func (m UpdateCurrentLoc) Leg() Leg {
	return Leg{Kind: KindUpdateCurrentLoc, Proxy: m.Proxy, MH: m.MH, MSS: m.NewLoc}
}

func (l Leg) Request() Request {
	return Request{Req: l.Req, Server: l.Server, Payload: l.Payload, Inc: l.Inc}
}
func (l Leg) RequestForward() RequestForward {
	return RequestForward{Proxy: l.Proxy, Req: l.Req, Server: l.Server, Payload: l.Payload, Inc: l.Inc}
}
func (l Leg) ServerRequest() ServerRequest {
	return ServerRequest{Proxy: l.Proxy, Req: l.Req, Payload: l.Payload}
}
func (l Leg) ServerResult() ServerResult {
	return ServerResult{Proxy: l.Proxy, Req: l.Req, Payload: l.Payload}
}
func (l Leg) ResultForward() ResultForward {
	return ResultForward{Proxy: l.Proxy, MH: l.MH, Req: l.Req, Payload: l.Payload, DelPref: l.Flag, Mark: l.Mark, Inc: l.Inc}
}
func (l Leg) ResultDeliver() ResultDeliver {
	return ResultDeliver{Req: l.Req, Payload: l.Payload, DelPref: l.Flag, Inc: l.Inc}
}
func (l Leg) AckMH() AckMH {
	return AckMH{MH: l.MH, Req: l.Req, HaveOutstanding: l.Flag}
}
func (l Leg) AckForward() AckForward {
	return AckForward{Proxy: l.Proxy, MH: l.MH, Req: l.Req, DelProxy: l.Flag}
}
func (l Leg) Greet() Greet {
	return Greet{MH: l.MH, OldMSS: l.MSS, Inc: l.Inc, Seq: l.Mark}
}
func (l Leg) Dereg() Dereg {
	return Dereg{MH: l.MH, NewMSS: l.MSS, Inc: l.Inc, Seq: l.Mark}
}
func (l Leg) DeregAck() DeregAck {
	if l.Flag {
		return DeregAck{MH: l.MH, Inc: l.Inc, Stale: true, Holder: l.MSS, Seq: l.Mark}
	}
	return DeregAck{MH: l.MH, Pref: Pref{Proxy: l.Proxy, RKpR: l.Req.Seq}, Routed: l.Mark, Inc: l.Inc}
}
func (l Leg) UpdateCurrentLoc() UpdateCurrentLoc {
	return UpdateCurrentLoc{Proxy: l.Proxy, MH: l.MH, NewLoc: l.MSS}
}
