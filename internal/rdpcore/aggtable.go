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
// table becomes a map from Pref value to a compact member set
// (aggstate.Set, ~2 bits per member in dense cells), and the
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
	// groups is the aggregated representation: members by pref value.
	// Lookups scan the groups — O(#distinct prefs), which is the point:
	// the representation is built for workloads where prefs collapse
	// onto few shared values (group proxies, empty prefs). Workloads
	// with per-MH proxies should keep AggregatedState off.
	groups map[msg.Pref]*aggstate.Set
}

func newPrefTable(agg bool) *prefTable {
	t := &prefTable{agg: agg}
	if agg {
		t.groups = make(map[msg.Pref]*aggstate.Set)
	} else {
		t.byMH = make(map[ids.MH]*msg.Pref)
	}
	return t
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
	for p, set := range t.groups {
		if set.Contains(uint32(mh)) {
			return p, true
		}
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
	for g, set := range t.groups {
		if !set.Contains(uint32(mh)) {
			continue
		}
		if g == p {
			return
		}
		set.Remove(uint32(mh))
		if set.Len() == 0 {
			delete(t.groups, g)
		}
		break
	}
	set := t.groups[p]
	if set == nil {
		set = &aggstate.Set{}
		t.groups[p] = set
	}
	set.Add(uint32(mh))
}

// delete erases mh's pref entirely (system departure, hand-off out).
func (t *prefTable) delete(mh ids.MH) {
	if !t.agg {
		delete(t.byMH, mh)
		return
	}
	for g, set := range t.groups {
		if set.Remove(uint32(mh)) {
			if set.Len() == 0 {
				delete(t.groups, g)
			}
			return
		}
	}
}

// len returns the number of registered prefs.
func (t *prefTable) len() int {
	if !t.agg {
		return len(t.byMH)
	}
	n := 0
	for _, set := range t.groups {
		n += set.Len()
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
	for g, set := range t.groups {
		p := g
		set.ForEach(func(v uint32) { fn(ids.MH(v), p) })
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
