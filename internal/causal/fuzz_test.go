package causal

import (
	"reflect"
	"slices"
	"testing"
)

// fuzzWorld is FuzzStamp's 3-wide group after a short history: process
// 0 sent m1 to me and m2 to 1, 1 delivered m2 and sent m3 to me, and m3
// waits at me for m1, as in TestDirectDependencyHeldBack. The dense RST
// oracle runs the same history beside it.
type fuzzWorld struct {
	eps    []*Endpoint
	oracle *denseRST
	got    []any   // delivered at me, in order
	dsts   [][]int // dsts[k]: where k's sends went, in send order
	m1     Stamp   // still on the wire
	o1     denseStamp
}

const fuzzN, fuzzMe = 3, 2

func newFuzzWorld(pooled bool) *fuzzWorld {
	w := &fuzzWorld{oracle: newDenseRST(fuzzN), dsts: make([][]int, fuzzN)}
	w.eps = Group(fuzzN, func(dst int, payload any) {
		if dst == fuzzMe {
			w.got = append(w.got, payload)
		}
	}, Pooled(pooled))
	w.m1, w.o1 = w.send(0, fuzzMe)
	m2, o2 := w.send(0, 1)
	w.eps[1].Receive(m2, "m2")
	w.oracle.receive(1, o2, "m2")
	m3, o3 := w.send(1, fuzzMe)
	w.eps[fuzzMe].Receive(m3, "m3")
	w.oracle.receive(fuzzMe, o3, "m3")
	return w
}

func (w *fuzzWorld) send(src, dst int) (Stamp, denseStamp) {
	w.dsts[src] = append(w.dsts[src], dst)
	return w.eps[src].Send(dst), w.oracle.send(src, dst)
}

// dense is the oracle's stamp for st: row k at version v counts k's
// first v sends by destination. The oracle's stamps predate the send;
// the wire form counts it.
func (w *fuzzWorld) dense(st Stamp) denseStamp {
	d := denseStamp{from: st.From, sent: denseMatrix(fuzzN)}
	for k, v := range st.vers {
		for _, dst := range w.dsts[k][:v] {
			d.sent[k][dst]++
		}
	}
	if d.sent[st.From][fuzzMe] > 0 {
		d.sent[st.From][fuzzMe]--
	}
	return d
}

// FuzzStamp hands arbitrary bytes to the stamp parser of a 3-wide group
// and, when they parse, to an endpoint that already holds a message
// back. Whatever parses names real sends, so the endpoint must deliver
// and hold back exactly what the dense RST oracle does with the same
// matrix — a forged sender version included, which may name a send to
// someone else. Later traffic built on the forged knowledge must stay
// panic-free, and no send log may ever hold anything but real sends over
// its channel, oldest dropped first.
func FuzzStamp(f *testing.F) {
	seed := newFuzzWorld(false)
	m1 := seed.m1.AppendBinary(nil)
	f.Add(m1)
	forged := slices.Clone(m1)
	forged[3] = 1 // process 1 claiming process 0's knowledge
	f.Add(forged)
	for _, size := range []int{1, 4} { // too small, too large
		f.Add(Group(size, func(int, any) {})[0].Send(size - 1).AppendBinary(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 3, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, pooled := range []bool{false, true} {
			w := newFuzzWorld(pooled)
			me := w.eps[fuzzMe]
			st, err := me.ParseStamp(data)
			if err != nil {
				return
			}
			arrive := func(s Stamp, o denseStamp, payload any) {
				me.Receive(s, payload)
				w.oracle.receive(fuzzMe, o, payload)
				if want := w.oracle.out[fuzzMe]; !reflect.DeepEqual(w.got, want) {
					t.Fatalf("pooled=%v: delivered %v, the dense RST %v", pooled, w.got, want)
				}
				if q, want := me.QueuedPayloads(), w.oracle.queued(fuzzMe); !reflect.DeepEqual(q, want) {
					t.Fatalf("pooled=%v: holds back %+v, the dense RST %+v", pooled, q, want)
				}
			}
			arrive(st, w.dense(st), "forged")
			arrive(w.m1, w.o1, "m1")

			// Later traffic built on the forged knowledge.
			back, _ := w.send(fuzzMe, 0)
			w.eps[0].Receive(back, "after")
			again, _ := w.send(0, fuzzMe)
			me.Receive(again, "again")
			for j, e := range w.eps {
				for k := range w.eps {
					var sent []uint64
					for v, dst := range w.dsts[k] {
						if dst == j {
							sent = append(sent, uint64(v+1))
						}
					}
					if got := logOf(e, k); len(got) > len(sent) || !slices.Equal(got, sent[len(sent)-len(got):]) {
						t.Fatalf("pooled=%v: channel %d→%d logs %v, its sends were %v", pooled, k, j, got, sent)
					}
				}
			}
		}
	})
}
