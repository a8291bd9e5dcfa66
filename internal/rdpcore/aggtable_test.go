package rdpcore

import (
	"fmt"
	"maps"
	"testing"

	"repro/internal/aggstate"
	"repro/internal/ids"
	"repro/internal/msg"
)

// prefPool is the handful of pref values FuzzPrefTable draws from: few
// enough that groups of none, one and several members all occur.
var prefPool = []msg.Pref{
	{},
	{Proxy: ids.ProxyID{Host: 1, Seq: 1}},
	{Proxy: ids.ProxyID{Host: 1, Seq: 1}, RKpR: 3},
	{Proxy: ids.ProxyID{Host: 2, Seq: 7}},
}

// modelGroup is the accounting model's view of one pref group: its
// members, and the set it has held since its second member joined.
type modelGroup struct {
	members map[ids.MH]bool
	set     *aggstate.Set
}

// prefModel computes the aggregated table's footprint independently: a
// group record per pref value with members, plus the set of every group
// that has had two members at once since it was created.
type prefModel map[msg.Pref]*modelGroup

func (m prefModel) set(mh ids.MH, p msg.Pref) {
	for q, g := range m {
		if g.members[mh] {
			if q == p {
				return
			}
			m.delete(mh)
			break
		}
	}
	g := m[p]
	if g == nil {
		m[p] = &modelGroup{members: map[ids.MH]bool{mh: true}}
		return
	}
	if g.set == nil {
		g.set = &aggstate.Set{}
		for v := range g.members {
			g.set.Add(uint32(v))
		}
	}
	g.members[mh] = true
	g.set.Add(uint32(mh))
}

func (m prefModel) delete(mh ids.MH) {
	for q, g := range m {
		if !g.members[mh] {
			continue
		}
		delete(g.members, mh)
		if len(g.members) == 0 {
			delete(m, q)
		} else if g.set != nil {
			g.set.Remove(uint32(mh))
		}
		return
	}
}

func (m prefModel) stateBytes() int {
	total := 0
	for _, g := range m {
		total += bytesPrefGroup
		if g.set != nil {
			total += g.set.MemBytes()
		}
	}
	return total
}

// checkPrefIndex holds an aggregated table's index to its invariants
// for hosts 1 to maxMH: lone and owner mirror each other, a value is
// lone or shared but not both and shared once, no shared set is empty, a
// host holds at most one value, and get finds what a scan of every value
// finds.
func checkPrefIndex(tab *prefTable, maxMH ids.MH) error {
	if len(tab.lone) != len(tab.owner) {
		return fmt.Errorf("%d lone hosts, %d owned values", len(tab.lone), len(tab.owner))
	}
	for mh, p := range tab.lone {
		if tab.owner[p] != mh {
			return fmt.Errorf("%v holds %v lone, owner says %v", mh, p, tab.owner[p])
		}
	}
	seen := make(map[msg.Pref]bool)
	for _, sp := range tab.shared {
		if _, lone := tab.owner[sp.p]; lone || seen[sp.p] {
			return fmt.Errorf("%v is shared and also lone or shared again", sp.p)
		}
		seen[sp.p] = true
		if sp.set.Len() == 0 {
			return fmt.Errorf("shared %v kept with no members", sp.p)
		}
	}
	for mh := ids.MH(1); mh <= maxMH; mh++ {
		var held []msg.Pref
		if p, ok := tab.lone[mh]; ok {
			held = append(held, p)
		}
		for _, sp := range tab.shared {
			if sp.set.Contains(uint32(mh)) {
				held = append(held, sp.p)
			}
		}
		if len(held) > 1 {
			return fmt.Errorf("%v holds %v", mh, held)
		}
		p, ok := tab.get(mh)
		if ok != (len(held) == 1) || ok && p != held[0] {
			return fmt.Errorf("get(%v) = %v %v, a scan finds %v", mh, p, ok, held)
		}
	}
	return nil
}

func tableContents(t *prefTable) map[ids.MH]msg.Pref {
	out := make(map[ids.MH]msg.Pref)
	t.forEach(func(mh ids.MH, p msg.Pref) {
		if _, dup := out[mh]; dup {
			panic("forEach visited a host twice")
		}
		out[mh] = p
	})
	return out
}

// FuzzPrefTable runs one sequence of set/get/delete/len/forEach calls
// against a faithful and an aggregated pref table: every answer must
// agree, the aggregated index must hold (checkPrefIndex), and the
// aggregated footprint must equal the model's after every step — through
// lone values gaining a second holder and shared sets shrunk back.
func FuzzPrefTable(f *testing.F) {
	// Op byte: op = b%5 (set, get, delete, len, forEach), MH = b/5%6+1;
	// the next byte picks the pref. MH 2 and 3 share pref 1 (promotion)
	// and leave it one by one; MH 2 rejoins as a fresh singleton and moves
	// to pref 2; then len and forEach.
	f.Add([]byte{5, 1, 10, 1, 7, 0, 12, 0, 5, 1, 5, 2, 13, 0, 9, 0})
	f.Add([]byte{0, 0, 5, 0, 10, 0, 15, 3, 20, 3, 2, 0, 1, 0, 3, 0, 4, 0})
	// MH 1 holds pref 3 lone and MH 2 joins it (the set comes), MH 1
	// leaves (the set stays); MH 3 holds pref 1 lone and leaves, and MH 4
	// takes pref 1; then get for MH 4, 2 and 1, len and forEach.
	f.Add([]byte{0, 3, 5, 3, 2, 0, 10, 1, 12, 0, 15, 1, 16, 0, 6, 0, 1, 0, 3, 0, 4, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		faithful, agg := newPrefTable(false), newPrefTable(true)
		model := prefModel{}
		for i := 0; i+1 < len(ops); i += 2 {
			mh := ids.MH(ops[i]/5%6 + 1)
			p := prefPool[int(ops[i+1])%len(prefPool)]
			switch ops[i] % 5 {
			case 0:
				faithful.set(mh, p)
				agg.set(mh, p)
				model.set(mh, p)
			case 1:
				fp, fok := faithful.get(mh)
				ap, aok := agg.get(mh)
				if fp != ap || fok != aok {
					t.Fatalf("step %d: get(%v) = %v %v faithful, %v %v aggregated", i/2, mh, fp, fok, ap, aok)
				}
			case 2:
				faithful.delete(mh)
				agg.delete(mh)
				model.delete(mh)
			case 3:
				if fl, al := faithful.len(), agg.len(); fl != al {
					t.Fatalf("step %d: len = %d faithful, %d aggregated", i/2, fl, al)
				}
			case 4:
				if fc, ac := tableContents(faithful), tableContents(agg); !maps.Equal(fc, ac) {
					t.Fatalf("step %d: forEach visits %v faithful, %v aggregated", i/2, fc, ac)
				}
			}
			if err := checkPrefIndex(agg, 6); err != nil {
				t.Fatalf("step %d: %v", i/2, err)
			}
			if got, want := agg.stateBytes(), model.stateBytes(); got != want {
				t.Fatalf("step %d: aggregated stateBytes = %d, model %d", i/2, got, want)
			}
		}
		if fc, ac := tableContents(faithful), tableContents(agg); !maps.Equal(fc, ac) {
			t.Fatalf("at the end: %v faithful, %v aggregated", fc, ac)
		}
	})
}
