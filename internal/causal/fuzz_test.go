package causal

import (
	"reflect"
	"testing"
)

// FuzzStamp hands arbitrary bytes to the stamp parser for a 3-wide
// group and, when they parse, to an endpoint that already holds a
// message back. Receive must never panic, and the endpoint must deliver
// and hold back exactly what the dense RST oracle does with the same
// matrix — delivery decisions depend only on DELIV and the stamps
// received, so that holds for forged stamps too. (What the endpoint
// then tells others does not: a forged row is no past value of its
// owner's row, so "newer version" and "element-wise maximum" part ways;
// the run only checks that later traffic stays panic-free and the pool
// balanced.)
func FuzzStamp(f *testing.F) {
	const n, me = 3, 2
	for _, size := range []int{1, n, 4} { // too small, right, too large
		eps := Group(size, func(int, any) {})
		eps[0].Send(size - 1)
		f.Add(eps[0].Send(size - 1).AppendBinary(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 3, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := ParseStamp(data, n); err != nil {
			return
		}
		for _, pooled := range []bool{false, true} {
			// Each mode parses its own copy: a pooled group takes over
			// the stamp's rows.
			st, _ := ParseStamp(data, n)
			var got []any
			eps := Group(n, func(dst int, payload any) {
				if dst == me {
					got = append(got, payload)
				}
			}, Pooled(pooled))
			oracle := newDenseRST(n)
			send := func(src, dst int) (Stamp, denseStamp) {
				return eps[src].Send(dst), oracle.send(src, dst)
			}
			arrive := func(dst int, s Stamp, o denseStamp, payload any) {
				eps[dst].Receive(s, payload)
				oracle.receive(dst, o, payload)
				if dst != me {
					return
				}
				if want := oracle.out[me]; !reflect.DeepEqual(got, want) {
					t.Fatalf("pooled=%v: delivered %v, the dense RST %v", pooled, got, want)
				}
				if q, want := eps[me].QueuedPayloads(), oracle.queued(me); !reflect.DeepEqual(q, want) {
					t.Fatalf("pooled=%v: holds back %+v, the dense RST %+v", pooled, q, want)
				}
			}
			// m3 waits at me for m1, as in TestDirectDependencyHeldBack.
			m1, o1 := send(0, me)
			m2, o2 := send(0, 1)
			arrive(1, m2, o2, "m2")
			m3, o3 := send(1, me)
			arrive(me, m3, o3, "m3")

			// The oracle's stamps predate the send; the wire form counts it.
			dense := denseStamp{from: st.From, sent: denseMatrix(n)}
			for k, r := range st.rows {
				copy(dense.sent[k], r.cnt)
			}
			if dense.sent[st.From][me] > 0 {
				dense.sent[st.From][me]--
			}
			arrive(me, st, dense, "forged")
			arrive(me, m1, o1, "m1")

			// Later traffic built on the forged knowledge: every stamp has
			// arrived, so whatever holds rows now is an endpoint or a buffer.
			eps[0].Receive(eps[me].Send(0), "after")
			if pooled {
				checkPoolBalance(t, eps, nil)
			}
		}
	})
}
