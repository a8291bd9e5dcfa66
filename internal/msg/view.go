package msg

import "fmt"

// View shows a listener a leg without boxing it: a struct of one pointer
// is stored in an interface as is, so handing a View to an Observer or a
// drop filter costs nothing. It is a borrow, valid for the call that
// shows it; the leg it points into is the frame record's, which the
// substrate recycles once the report returns. A View renders (String),
// sizes (WireSize), encodes (AppendEncode) and converts (LegOf) exactly as
// the leg's box does. Whoever keeps a shown message past the call owns it
// through Keep.
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

// String renders the leg as its box renders.
func (v View) String() string { return v.l.Message().String() }

// Keep returns a message its holder may keep past the call that showed
// it: a View's leg boxed, a link-layer frame shown by pointer into its
// substrate's record (*LinkFrame, *LinkAck, *WtpData, *WtpAck) copied into
// a box of its value — a LinkFrame's Inner kept in turn — and any other
// message as it is. The boxes Keep makes are the only ones a listener
// costs, so a listener that only counts or reads the kind pays none.
func Keep(m Message) Message {
	switch v := m.(type) {
	case View:
		return v.l.Message()
	case *LinkFrame:
		return LinkFrame{Seq: v.Seq, Inner: Keep(v.Inner)}
	case *LinkAck:
		return *v
	case *WtpData:
		return *v
	case *WtpAck:
		return *v
	}
	return m
}

// code walks the fields of the kind the leg carries, as that kind's own
// code method does on its box; writing only.
func (l *Leg) code(c *coder) Message {
	switch l.Kind {
	case KindRequest:
		return l.Request().code(c)
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
