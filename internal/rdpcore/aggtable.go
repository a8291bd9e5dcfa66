package rdpcore

import (
	"cmp"

	"repro/internal/aggstate"
	"repro/internal/ids"
	"repro/internal/msg"
)

// This file holds the two mode-switched per-MH state containers behind
// the aggregated-location-state optimization (E16). In the
// paper-faithful representation every responsible MH costs a hash-map
// entry in the station's responsibility set and another one (with a
// heap-allocated Pref) in its pref table — O(hosts) bytes per station.
// The aggregated representation exploits that prefs are tiny and
// massively shared: a subscriber population served by shared group
// proxies collapses into a handful of distinct Pref *values*, so the
// table keeps a compact member set per shared value (aggstate.Set, ~2
// bits per member in dense cells), and the
// responsibility set becomes one such member set — O(cells·servers)
// group entries instead of O(hosts) map entries.
//
// Both containers expose identical value-semantics accessors, and every
// protocol path goes through them; with Config.AggregatedState off, the
// faithful map representation is used and message traces are
// byte-identical to earlier revisions.

// prefTable stores one pref per registered MH.
type prefTable struct {
	agg bool
	// byMH is the faithful representation (§3.1: one pref per MH).
	byMH map[ids.MH]*msg.Pref
	// The aggregated representation keeps members by pref value, in one
	// of two forms. A value one host holds is indexed by that host: lone
	// maps the host to it and owner maps it back, so the holder is found
	// in one probe — per-MH proxies give every host prefs of its own, and
	// this is the form they take. A value that has had two holders at
	// once (the empty pref, a group proxy's) is a member set in shared,
	// kept until its last member leaves, so a shared value that churns
	// around one member does not reallocate it. A host sits in lone or in
	// one shared set, never both; finding a host that is not lone scans
	// shared, a station's few shared values — a slice, which a scan
	// walks faster than a map.
	lone   map[ids.MH]msg.Pref
	owner  map[msg.Pref]ids.MH
	shared []sharedPref
}

// sharedPref is a pref value with its member set.
type sharedPref struct {
	p   msg.Pref
	set *aggstate.Set
}

func newPrefTable(agg bool) *prefTable {
	t := &prefTable{agg: agg}
	if agg {
		t.lone = make(map[ids.MH]msg.Pref)
		t.owner = make(map[msg.Pref]ids.MH)
	} else {
		t.byMH = make(map[ids.MH]*msg.Pref)
	}
	return t
}

// sharedOf returns the index in shared of the value mh holds, or -1.
func (t *prefTable) sharedOf(mh ids.MH) int {
	for i := range t.shared {
		if t.shared[i].set.Contains(uint32(mh)) {
			return i
		}
	}
	return -1
}

// get returns the pref registered for mh, if any.
func (t *prefTable) get(mh ids.MH) (msg.Pref, bool) {
	if !t.agg {
		p, ok := t.byMH[mh]
		if !ok {
			return msg.Pref{}, false
		}
		return *p, true
	}
	if p, ok := t.lone[mh]; ok {
		return p, true
	}
	if i := t.sharedOf(mh); i >= 0 {
		return t.shared[i].p, true
	}
	return msg.Pref{}, false
}

// set registers (or replaces) mh's pref.
func (t *prefTable) set(mh ids.MH, p msg.Pref) {
	if !t.agg {
		if cur, ok := t.byMH[mh]; ok {
			*cur = p
		} else {
			cp := p
			t.byMH[mh] = &cp
		}
		return
	}
	if q, ok := t.lone[mh]; ok {
		if q == p {
			return
		}
		delete(t.lone, mh)
		delete(t.owner, q)
	} else if i := t.sharedOf(mh); i >= 0 {
		if t.shared[i].p == p {
			return
		}
		t.leave(i, mh)
	}
	for i := range t.shared {
		if t.shared[i].p == p {
			t.shared[i].set.Add(uint32(mh))
			return
		}
	}
	if one, ok := t.owner[p]; ok { // p's second holder brings its set
		s := &aggstate.Set{}
		s.Add(uint32(one))
		s.Add(uint32(mh))
		t.shared = append(t.shared, sharedPref{p, s})
		delete(t.lone, one)
		delete(t.owner, p)
		return
	}
	t.lone[mh] = p
	t.owner[p] = mh
}

// leave takes mh out of shared[i]'s set, dropping the value with its
// last member.
func (t *prefTable) leave(i int, mh ids.MH) {
	s := t.shared[i].set
	s.Remove(uint32(mh))
	if s.Len() == 0 {
		last := len(t.shared) - 1
		t.shared[i] = t.shared[last]
		t.shared[last] = sharedPref{}
		t.shared = t.shared[:last]
	}
}

// delete erases mh's pref entirely (system departure, hand-off out).
func (t *prefTable) delete(mh ids.MH) {
	if !t.agg {
		delete(t.byMH, mh)
		return
	}
	if q, ok := t.lone[mh]; ok {
		delete(t.lone, mh)
		delete(t.owner, q)
	} else if i := t.sharedOf(mh); i >= 0 {
		t.leave(i, mh)
	}
}

// len returns the number of registered prefs.
func (t *prefTable) len() int {
	if !t.agg {
		return len(t.byMH)
	}
	n := len(t.lone)
	for _, sp := range t.shared {
		n += sp.set.Len()
	}
	return n
}

// forEach visits every (MH, pref) pair. Iteration order is unspecified
// (only invariant checks and state accounting iterate the table).
func (t *prefTable) forEach(fn func(ids.MH, msg.Pref)) {
	if !t.agg {
		for mh, p := range t.byMH {
			fn(mh, *p)
		}
		return
	}
	for mh, p := range t.lone {
		fn(mh, p)
	}
	for _, sp := range t.shared {
		sp.set.ForEach(func(v uint32) { fn(ids.MH(v), sp.p) })
	}
}

// hostSet is the station's responsibility set (§2 localMhs).
type hostSet struct {
	agg bool
	m   map[ids.MH]bool
	s   aggstate.Set
}

func newHostSet(agg bool) *hostSet {
	h := &hostSet{agg: agg}
	if !agg {
		h.m = make(map[ids.MH]bool)
	}
	return h
}

func (h *hostSet) contains(mh ids.MH) bool {
	if !h.agg {
		return h.m[mh]
	}
	return h.s.Contains(uint32(mh))
}

func (h *hostSet) add(mh ids.MH) {
	if !h.agg {
		h.m[mh] = true
		return
	}
	h.s.Add(uint32(mh))
}

func (h *hostSet) remove(mh ids.MH) {
	if !h.agg {
		delete(h.m, mh)
		return
	}
	h.s.Remove(uint32(mh))
}

func (h *hostSet) len() int {
	if !h.agg {
		return len(h.m)
	}
	return h.s.Len()
}

// forEach visits members in ascending MH order in both modes — the
// callers that emit wire traffic per member (lease beats, recovery
// re-announcements) need a deterministic order, and the faithful code
// sorted before iterating anyway.
func (h *hostSet) forEach(fn func(ids.MH)) {
	if !h.agg {
		for _, mh := range sortedKeys(h.m, cmp.Compare[ids.MH]) {
			fn(mh)
		}
		return
	}
	h.s.ForEach(func(v uint32) { fn(ids.MH(v)) })
}
