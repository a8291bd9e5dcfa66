package rdpcore

import (
	"slices"

	"repro/internal/aggstate"
	"repro/internal/ids"
	"repro/internal/msg"
)

// This file holds the station's pref table, the one record of the hosts
// it is responsible for (§3.1: the respMss holds the MH's pref, so its
// responsible hosts are exactly the table's keys), in the two
// representations behind the aggregated-location-state optimization
// (E16). In the paper-faithful representation every registered MH costs
// a hash-map entry holding its Pref — O(hosts) bytes per station. The
// aggregated representation exploits that prefs are tiny and massively
// shared: a subscriber population served by shared group proxies
// collapses into a handful of distinct Pref *values*, so the table keeps
// a compact member set per shared value (aggstate.Set, ~2 bits per
// member in dense cells) — O(cells·servers) group entries instead of
// O(hosts) map entries.
//
// Both representations expose identical value-semantics accessors, and
// every protocol path goes through them; with Config.AggregatedState
// off, the faithful map representation is used.

// prefTable stores one pref per registered MH.
type prefTable struct {
	agg bool
	// byMH is the faithful representation (§3.1: one pref per MH).
	byMH map[ids.MH]msg.Pref
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
		t.byMH = make(map[ids.MH]msg.Pref)
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
		return p, ok
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
		t.byMH[mh] = p
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

// forEach visits every (MH, pref) pair in no particular order; walks
// that send per host take forEachSorted.
func (t *prefTable) forEach(fn func(ids.MH, msg.Pref)) {
	if !t.agg {
		for mh, p := range t.byMH {
			fn(mh, p)
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

// forEachSorted visits every (MH, pref) pair in ascending MH order, in
// both representations: the walks that send per registered host (lease
// beats, recovery re-announcements) must not shuffle kernel event order.
func (t *prefTable) forEachSorted(fn func(ids.MH, msg.Pref)) {
	mhs := make([]ids.MH, 0, t.len())
	t.forEach(func(mh ids.MH, _ msg.Pref) { mhs = append(mhs, mh) })
	slices.Sort(mhs)
	for _, mh := range mhs {
		p, _ := t.get(mh)
		fn(mh, p)
	}
}
