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
	// onto few shared values (group proxies, empty prefs). Per-MH
	// proxies give each host prefs of its own, so their groups are
	// singletons: a lone member sits inline in its group, and creating or
	// dropping one allocates nothing; only the scan grows with the hosts.
	groups map[msg.Pref]prefGroup
}

// prefGroup is the hosts sharing one pref value: a lone member inline in
// one, and from the second member on a set holding them all (one is then
// unused). A group keeps its set until its last member leaves, so a
// shared group that churns around one member does not reallocate it.
type prefGroup struct {
	one ids.MH
	set *aggstate.Set
}

func (g prefGroup) contains(mh ids.MH) bool {
	if g.set == nil {
		return g.one == mh
	}
	return g.set.Contains(uint32(mh))
}

func (g prefGroup) len() int {
	if g.set == nil {
		return 1
	}
	return g.set.Len()
}

// add returns the group with mh joined; a second member brings the set.
func (g prefGroup) add(mh ids.MH) prefGroup {
	if g.set == nil {
		if g.one == mh {
			return g
		}
		g.set = &aggstate.Set{}
		g.set.Add(uint32(g.one))
	}
	g.set.Add(uint32(mh))
	return g
}

// remove takes mh, a member, out of the group and reports whether
// anyone is left.
func (g prefGroup) remove(mh ids.MH) bool {
	if g.set == nil {
		return false
	}
	g.set.Remove(uint32(mh))
	return g.set.Len() > 0
}

func (g prefGroup) forEach(fn func(ids.MH)) {
	if g.set == nil {
		fn(g.one)
		return
	}
	g.set.ForEach(func(v uint32) { fn(ids.MH(v)) })
}

func newPrefTable(agg bool) *prefTable {
	t := &prefTable{agg: agg}
	if agg {
		t.groups = make(map[msg.Pref]prefGroup)
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
	for p, g := range t.groups {
		if g.contains(mh) {
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
	for q, g := range t.groups {
		if !g.contains(mh) {
			continue
		}
		if q == p {
			return
		}
		if !g.remove(mh) {
			delete(t.groups, q)
		}
		break
	}
	if g, ok := t.groups[p]; ok {
		t.groups[p] = g.add(mh)
	} else {
		t.groups[p] = prefGroup{one: mh}
	}
}

// delete erases mh's pref entirely (system departure, hand-off out).
func (t *prefTable) delete(mh ids.MH) {
	if !t.agg {
		delete(t.byMH, mh)
		return
	}
	for q, g := range t.groups {
		if g.contains(mh) {
			if !g.remove(mh) {
				delete(t.groups, q)
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
	for _, g := range t.groups {
		n += g.len()
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
	for q, g := range t.groups {
		p := q
		g.forEach(func(mh ids.MH) { fn(mh, p) })
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
