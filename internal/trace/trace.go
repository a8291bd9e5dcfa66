// Package trace records message events from the network substrates and
// checks recorded traces against expected protocol scenarios. The
// Figure 3 and Figure 4 reproduction tests use it to assert that the
// implementation exchanges exactly the message sequence the paper draws.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Entry is one recorded message event.
type Entry struct {
	At    sim.Time
	Layer netsim.Layer
	Kind  netsim.EventKind
	From  ids.NodeID
	To    ids.NodeID
	Msg   msg.Message
}

// String renders the entry as one trace line.
func (e Entry) String() string {
	return fmt.Sprintf("%-12s %-8s %-9s %v -> %v: %v",
		e.At, e.Layer, e.Kind, e.From, e.To, e.Msg)
}

// Recorder collects entries; it implements the netsim.Observer contract
// via its Observe method. It keeps what it is shown, so it owns each
// message through msg.Keep: an entry does not change when the substrate
// reuses the record it was shown from.
type Recorder struct {
	entries []Entry
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Observe appends one event, keeping its message; pass it as the
// Observer to the substrates.
func (r *Recorder) Observe(at sim.Time, layer netsim.Layer, kind netsim.EventKind, from, to ids.NodeID, m msg.Message) {
	r.entries = append(r.entries, Entry{At: at, Layer: layer, Kind: kind, From: from, To: to, Msg: msg.Keep(m)})
}

// Entries returns all recorded events in order.
func (r *Recorder) Entries() []Entry { return r.entries }

// Deliveries returns only successful deliveries, in order.
func (r *Recorder) Deliveries() []Entry {
	var out []Entry
	for _, e := range r.entries {
		if e.Kind == netsim.EventDelivered {
			out = append(out, e)
		}
	}
	return out
}

// Drops returns only dropped messages, in order.
func (r *Recorder) Drops() []Entry {
	var out []Entry
	for _, e := range r.entries {
		if e.Kind.IsDrop() {
			out = append(out, e)
		}
	}
	return out
}

// Reset discards all recorded entries.
func (r *Recorder) Reset() { r.entries = nil }

// String renders the whole trace, one line per event.
func (r *Recorder) String() string {
	var b strings.Builder
	for _, e := range r.entries {
		b.WriteString(e.String())
		b.WriteString("\n")
	}
	return b.String()
}

// CountDelivered returns how many messages of the given kind were
// delivered.
func (r *Recorder) CountDelivered(k msg.Kind) int {
	n := 0
	for _, e := range r.entries {
		if e.Kind == netsim.EventDelivered && e.Msg.Kind() == k {
			n++
		}
	}
	return n
}

// Step is one expected delivery in a scenario. Zero-valued fields are
// wildcards: a zero From/To matches any endpoint and a nil Check skips
// payload inspection.
type Step struct {
	// Kind of the delivered message.
	Kind msg.Kind
	// From and To constrain the endpoints when valid.
	From, To ids.NodeID
	// Check, when non-nil, inspects the message payload.
	Check func(m msg.Message) bool
	// Note describes the step in failure messages.
	Note string
}

func (s Step) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v", s.Kind)
	if s.From.Valid() || s.To.Valid() {
		fmt.Fprintf(&b, " %v->%v", s.From, s.To)
	}
	if s.Note != "" {
		fmt.Fprintf(&b, " (%s)", s.Note)
	}
	return b.String()
}

// matches reports whether entry e satisfies step s.
func (s Step) matches(e Entry) bool {
	if e.Msg.Kind() != s.Kind {
		return false
	}
	if s.From.Valid() && e.From != s.From {
		return false
	}
	if s.To.Valid() && e.To != s.To {
		return false
	}
	if s.Check != nil && !s.Check(e.Msg) {
		return false
	}
	return true
}

// ExpectSequence verifies that the given steps appear among the
// recorder's deliveries in order (as a subsequence: unrelated deliveries
// may be interleaved). It returns a descriptive error naming the first
// unmatched step.
func (r *Recorder) ExpectSequence(steps []Step) error {
	deliveries := r.Deliveries()
	di := 0
	for si, s := range steps {
		found := false
		for di < len(deliveries) {
			e := deliveries[di]
			di++
			if s.matches(e) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("trace: step %d (%v) not found after position %d;\nfull trace:\n%s",
				si, s, di, r.String())
		}
	}
	return nil
}

// ExpectExactly verifies that the recorder's deliveries, filtered to the
// kinds mentioned in steps, match the steps one-for-one in order. It is
// stricter than ExpectSequence: no extra delivery of a mentioned kind
// may occur.
func (r *Recorder) ExpectExactly(steps []Step) error {
	mentioned := make(map[msg.Kind]bool, len(steps))
	for _, s := range steps {
		mentioned[s.Kind] = true
	}
	var relevant []Entry
	for _, e := range r.Deliveries() {
		if mentioned[e.Msg.Kind()] {
			relevant = append(relevant, e)
		}
	}
	if len(relevant) != len(steps) {
		return fmt.Errorf("trace: %d relevant deliveries, want %d;\nrelevant:\n%s\nfull trace:\n%s",
			len(relevant), len(steps), format(relevant), r.String())
	}
	for i, s := range steps {
		if !s.matches(relevant[i]) {
			return fmt.Errorf("trace: delivery %d = %v does not match step %v;\nrelevant:\n%s",
				i, relevant[i], s, format(relevant))
		}
	}
	return nil
}

func format(entries []Entry) string {
	var b strings.Builder
	for i, e := range entries {
		fmt.Fprintf(&b, "%3d: %s\n", i, e.String())
	}
	return b.String()
}
