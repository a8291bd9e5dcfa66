package msg

import (
	"fmt"
	"slices"
)

// View shows a leg without boxing it: a struct of one pointer is stored
// in an interface as is, so handing a View to a door — a handler, a
// transport's send, an Observer, a drop filter — costs nothing. It is a
// borrow, valid for the call that shows it; the leg it points into is the
// sender's outgoing slot or the substrate's frame record, which are
// written again once the call returns. A View renders (String), sizes
// (WireSize), encodes (AppendEncode) and converts (LegOf) exactly as the
// leg's box does. Whoever keeps a shown message past the call copies it:
// into an Envelope (EnvelopeOf), or boxed (Keep).
type View struct{ l *Leg }

// A View and the link-layer frames a substrate shows by pointer are
// messages.
var (
	_ Message = View{}
	_ Message = (*LinkFrame)(nil)
	_ Message = (*LinkAck)(nil)
	_ Message = (*WtpData)(nil)
	_ Message = (*WtpAck)(nil)
)

// ViewOf shows the leg l points to.
func ViewOf(l *Leg) View { return View{l} }

// Kind returns the kind of the leg shown.
func (v View) Kind() Kind { return v.l.Kind }

// Leg returns the leg shown, in place: a handler reads its fields during
// the call without copying it out. Nobody writes through it.
func (v View) Leg() *Leg { return v.l }

// String renders the leg as its box renders.
func (v View) String() string { return v.l.Message().String() }

// Keep returns a message its holder may keep past the call that showed
// it: a View's leg boxed, a link-layer frame shown by pointer into its
// substrate's record (*LinkFrame, *LinkAck, *WtpData, *WtpAck) copied into
// a box of its value — a LinkFrame's Inner kept in turn, a WtpData's
// envelopes and a WtpAck's Sacks copied out of the record's arrays, which
// the substrate reuses — and any other message as it is. The boxes Keep
// makes are the only ones a listener costs, so a listener that only
// counts or reads the kind pays none.
func Keep(m Message) Message {
	switch v := m.(type) {
	case View:
		return v.l.Message()
	case *LinkFrame:
		return LinkFrame{Seq: v.Seq, Inner: Keep(v.Inner)}
	case *LinkAck:
		return *v
	case *WtpData:
		return WtpData{Epoch: v.Epoch, Seq: v.Seq, Inner: slices.Clone(v.Inner)}
	case *WtpAck:
		return WtpAck{Epoch: v.Epoch, Cum: v.Cum, Sacks: slices.Clone(v.Sacks)}
	}
	return m
}

// Envelope is a message kept past the call that showed it: a leg by
// value, or any other message as it is — exactly one of them set. It is
// what a transport keeps of what it is sent (a frame in flight, a
// windowed frame's messages) and what a node keeps of what it is handed
// or will send again (a queue, a buffer, a host's re-sendable request),
// so a View is copied, never boxed.
type Envelope struct {
	leg Leg
	m   Message
}

// EnvelopeOf keeps m: the leg out of a View or out of a box of a leg
// kind, and any other message as it is.
func EnvelopeOf(m Message) Envelope {
	if v, ok := m.(View); ok {
		return Envelope{leg: *v.l}
	}
	if l, ok := LegOf(m); ok {
		return Envelope{leg: l}
	}
	return Envelope{m: m}
}

// Message shows what the envelope holds: a view of its leg, valid while
// the envelope is, or its message.
func (e *Envelope) Message() Message {
	if e.m != nil {
		return e.m
	}
	return View{&e.leg}
}

// code walks the fields of the kind the leg carries, as that kind's own
// code method does on its box; writing only.
func (l *Leg) code(c *coder) Message {
	switch l.Kind {
	case KindRequest:
		return l.Request().code(c)
	case KindRequestForward:
		return l.RequestForward().code(c)
	case KindServerRequest:
		return l.ServerRequest().code(c)
	case KindServerResult:
		return l.ServerResult().code(c)
	case KindResultForward:
		return l.ResultForward().code(c)
	case KindResultDeliver:
		return l.ResultDeliver().code(c)
	case KindAckMH:
		return l.AckMH().code(c)
	case KindAckForward:
		return l.AckForward().code(c)
	case KindGreet:
		return l.Greet().code(c)
	case KindDereg:
		return l.Dereg().code(c)
	case KindDeregAck:
		return l.DeregAck().code(c)
	case KindUpdateCurrentLoc:
		return l.UpdateCurrentLoc().code(c)
	}
	c.fail(fmt.Errorf("%w: %v is not a leg kind", ErrBadKind, l.Kind))
	return nil
}
