package rdpcore

// This file defines the E16 state-accounting model: a deterministic
// byte count of the location/subscription state a station holds, under
// either representation. The constants model Go's real costs (map
// bucket share + key/value + heap object headers) but are fixed by
// contract, so experiments measure representation, not allocator noise,
// and the regression test can assert exact counts.
//
// The model covers exactly the state the aggregation changes or could
// plausibly change: the pref table (whose keys are the station's
// responsible hosts), the incarnation table, and every hosted proxy with
// its requestList — a private proxy's entries at a fixed cost each, a
// group proxy's member set and location exceptions and its shared
// entries' member lists besides — and each proxy's batch records and
// floors (E17).

const (
	// Faithful pref table: one map entry per registered MH, its Pref
	// held by value.
	bytesPrefEntry = 64
	// Aggregated pref-table group record: one per Pref value held, a
	// lone holder's index entries or a shared value's record (its
	// member set's header and payload are the set's MemBytes).
	bytesPrefGroup = 64
	// Incarnation table entry (identical in both modes).
	bytesIncEntry = 52
	// Private proxy: struct + map/slice headers, and one requestList
	// entry with its one member (excluding the variable payload/result
	// bytes, added per request).
	bytesProxy    = 160
	bytesProxyReq = 120
	// Group proxy: struct + its group's maps, one shared entry with its
	// member list (again excluding payload/result), one waiter, one
	// memberLoc exception, and one ackIdx element (only while a result is
	// in fan-out).
	bytesGroupProxy = 128
	bytesGroupEntry = 96
	bytesWaiter     = 16
	bytesMemberLoc  = 16
	bytesAckIdx     = 16
	// A batch record or abort memo, and an origin host's batch floor.
	bytesBatch = 20
	bytesFloor = 12
)

// stateBytes is the pref table's footprint under the model.
func (t *prefTable) stateBytes() int {
	if !t.agg {
		return len(t.byMH) * bytesPrefEntry
	}
	total := (len(t.lone) + len(t.shared)) * bytesPrefGroup
	for _, sp := range t.shared {
		total += sp.set.MemBytes()
	}
	return total
}

// StateBytes returns the station's modeled location/subscription state
// footprint: pref table, incarnation table, and every hosted proxy with
// its stored requests and results, batch records and floors.
func (n *MSSNode) StateBytes() int {
	total := n.prefs.stateBytes()
	for _, h := range n.hosts {
		if h.inc != 0 { // the incarnation table: records with one registered
			total += bytesIncEntry
		}
	}
	// A group proxy's member set and location exceptions, and each shared
	// entry's waiters, entrants and (once the result is in) ack index,
	// count instead of a private proxy's and entry's fixed cost.
	for _, a := range n.hosted {
		p, ok := a.(*Proxy)
		if !ok {
			continue
		}
		if g := p.group; g == nil {
			total += bytesProxy
		} else {
			total += bytesGroupProxy + g.members.MemBytes() + len(g.memberLoc)*bytesMemberLoc
		}
		total += len(p.batches)*bytesBatch + len(p.floors)*bytesFloor
		for _, r := range p.reqs {
			total += len(r.Payload) + len(r.Result)
			if ws := p.group.waitersOf(r.Req); ws != nil {
				total += bytesGroupEntry + len(ws.list)*bytesWaiter + ws.entrants.MemBytes() + len(ws.ackIdx)*bytesAckIdx
			} else {
				total += bytesProxyReq
			}
		}
	}
	return total
}

// StateBytes sums the modeled station state over the whole world.
func (w *World) StateBytes() int64 {
	var total int64
	for _, id := range w.mssList {
		total += int64(w.MSSs[id].StateBytes())
	}
	return total
}
