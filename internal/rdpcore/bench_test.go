package rdpcore

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/netsim"
)

// roundTripWorld is the smallest world that runs the whole protocol: two
// stations, one server, one stationary host, no faults and no timers, so
// Run drains after every request.
func roundTripWorld() (*World, *MHNode) {
	cfg := DefaultConfig()
	cfg.NumMSS = 2
	w := NewWorld(cfg)
	h := w.AddMH(1, 1)
	w.Run()
	return w, h
}

// BenchmarkRequestRoundTrip measures one request's whole life in the
// protocol layer and the substrates under it: issue → proxy created →
// server → result forwarded → delivered → Ack relayed → proxy deleted.
func BenchmarkRequestRoundTrip(b *testing.B) {
	w, h := roundTripWorld()
	payload := []byte("q")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.IssueRequest(1, payload)
		w.Run()
	}
	if got := w.Stats.ResultsDelivered.Value(); got != int64(b.N) {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
}

// BenchmarkReachable measures the radio gate every wireless frame passes
// in each direction, probing hosts in a scattered order: at 1000 hosts
// (the paper's regime) the population sits in cache; at 65536 the probe
// pays for the host's cold cache line, which the frame's handler — the
// host itself — touches next in any case.
func BenchmarkReachable(b *testing.B) {
	for _, hosts := range []int{1000, 1 << 16} {
		b.Run(fmt.Sprint("hosts=", hosts), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NumMSS = 8
			w := NewWorld(cfg)
			for i := 1; i <= hosts; i++ {
				w.AddMH(ids.MH(i), ids.MSS(1+i%8))
			}
			w.Run()
			b.ResetTimer()
			hit := 0
			for i := 0; i < b.N; i++ {
				mh := ids.MH(1 + (i*7919)%hosts)
				if w.reachable(ids.MSS(1+int(mh)%8), mh) {
					hit++
				}
			}
			if hit != b.N {
				b.Fatalf("%d of %d probes reachable", hit, b.N)
			}
		})
	}
}

// BenchmarkAggPrefTable measures the aggregated pref table at a
// region_scale-shaped station: 500 hosts on the empty pref and 100 or
// 10 000 hosts each holding a private proxy's pref. get probes an
// empty-pref host and a private one in turn, each in a scattered order;
// cycle takes one more host's pref through {P} → {P, RKpR} → {} with a
// fresh P each time, a private proxy's life. Neither should grow with
// the private hosts.
func BenchmarkAggPrefTable(b *testing.B) {
	const empty = 500
	for _, private := range []int{100, 10_000} {
		tab := newPrefTable(true)
		for mh := ids.MH(1); mh <= empty; mh++ {
			tab.set(mh, msg.Pref{})
		}
		for i := 1; i <= private; i++ {
			tab.set(ids.MH(empty+i), msg.Pref{Proxy: ids.ProxyID{Host: 1, Seq: uint32(i)}})
		}
		b.Run(fmt.Sprint("get/private=", private), func(b *testing.B) {
			found := 0
			for i := 0; i < b.N; i++ {
				mh := ids.MH(1 + (i/2*7919)%empty) // even: an empty-pref host
				if i%2 == 1 {
					mh = ids.MH(empty + 1 + (i/2*7919)%private)
				}
				if _, ok := tab.get(mh); ok {
					found++
				}
			}
			if found != b.N {
				b.Fatalf("found %d of %d hosts", found, b.N)
			}
		})
		b.Run(fmt.Sprint("cycle/private=", private), func(b *testing.B) {
			mh, seq := ids.MH(empty+private+1), uint32(private)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				seq++
				p := msg.Pref{Proxy: ids.ProxyID{Host: 1, Seq: seq}}
				tab.set(mh, p)
				p.RKpR = seq
				tab.set(mh, p)
				tab.set(mh, msg.Pref{})
			}
		})
	}
}

// journalWorld is a checkpointing station mid-protocol: host 1's proxy at
// station 1 holds three requests the server has not answered yet, all
// three routed there. It returns the station and the proxy's slot.
func journalWorld(tb testing.TB) (*MSSNode, uint32) {
	cfg := DefaultConfig()
	cfg.NumMSS = 2
	cfg.Checkpoint = true
	cfg.ServerProc = netsim.Constant(time.Hour)
	w := NewWorld(cfg)
	h := w.AddMH(1, 1)
	for i := 0; i < 3; i++ {
		h.IssueRequest(1, []byte("q"))
	}
	w.RunUntil(time.Second)
	n := w.MSSs[1]
	pref, _ := n.PrefOf(1)
	p := n.proxyAt(pref.Proxy.Seq)
	if p == nil || len(p.reqs) != 3 || n.peek(1).routed != 3 {
		tb.Fatalf("set-up: proxy %v, routed %d", p, n.peek(1).routed)
	}
	return n, pref.Proxy.Seq
}

// BenchmarkJournalFlush measures one event's journal write: a host record
// and a proxy marked, and flushJournal storing the image of each.
func BenchmarkJournalFlush(b *testing.B) {
	n, seq := journalWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.markHost(1)
		n.markSlot(seq)
		n.flushJournal()
	}
}
