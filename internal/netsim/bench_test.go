package netsim

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
)

// BenchmarkWiredDelivery measures the steady-state cost of one wired
// causal send+deliver: stamp snapshot (pooled), transit scheduling
// (kernel free list, no cancel handle), and RST delivery. This is the
// per-hop cost every simulated protocol message pays.
func BenchmarkWiredDelivery(b *testing.B) {
	k := sim.NewKernel(1)
	members := staticMembers()
	w := NewWired(k, members, WiredConfig{Latency: Constant(time.Millisecond), Causal: true}, nil)
	for _, n := range members {
		w.Register(n, HandlerFunc(func(ids.NodeID, msg.Message) {}))
	}
	from, to := ids.MSS(1).Node(), ids.MSS(2).Node()
	m := msg.Dereg{MH: 7, NewMSS: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Send(from, to, m)
		k.Run()
	}
}

// BenchmarkWiredDeliveryUncausal isolates the transport without RST
// stamps, for comparison with BenchmarkWiredDelivery.
func BenchmarkWiredDeliveryUncausal(b *testing.B) {
	k := sim.NewKernel(1)
	members := staticMembers()
	w := NewWired(k, members, WiredConfig{Latency: Constant(time.Millisecond)}, nil)
	for _, n := range members {
		w.Register(n, HandlerFunc(func(ids.NodeID, msg.Message) {}))
	}
	from, to := ids.MSS(1).Node(), ids.MSS(2).Node()
	m := msg.Dereg{MH: 7, NewMSS: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Send(from, to, m)
		k.Run()
	}
}

// TestWiredDeliveryAllocBudget pins the fault-free causal hop at zero
// allocations once the pools are warm (the message arrives boxed): the
// stamp, the frame record that carries it through the kernel and the
// causal layer, and the kernel event are all recycled.
func TestWiredDeliveryAllocBudget(t *testing.T) {
	k := sim.NewKernel(1)
	members := staticMembers()
	w := NewWired(k, members, WiredConfig{Latency: Constant(time.Millisecond), Causal: true}, nil)
	for _, n := range members {
		w.Register(n, HandlerFunc(func(ids.NodeID, msg.Message) {}))
	}
	from, to := ids.MSS(1).Node(), ids.MSS(2).Node()
	var m msg.Message = msg.Dereg{MH: 7, NewMSS: 2}
	// Warm up pools and the kernel free list.
	for i := 0; i < 32; i++ {
		w.Send(from, to, m)
		k.Run()
	}
	avg := testing.AllocsPerRun(200, func() {
		w.Send(from, to, m)
		k.Run()
	})
	if avg != 0 {
		t.Errorf("wired causal delivery: %.1f allocs/op, budget 0", avg)
	}
}

// BenchmarkWiredARQHop measures one message over the fault-tolerant
// backbone — causal stamp, ARQ frame, ack, retransmission timer — on a
// clean link and on one that drops, duplicates and delays at
// fault_recovery's rates (where a hop also pays its retransmissions).
func BenchmarkWiredARQHop(b *testing.B) {
	for _, name := range []string{"clean", "faulty"} {
		b.Run(name, func(b *testing.B) {
			k := sim.NewKernel(1)
			members := staticMembers()
			w := NewWired(k, members, WiredConfig{
				Latency: Constant(time.Millisecond), Causal: true, Faults: arqLinks[name](k),
				ARQ: ARQConfig{Enabled: true, RTO: 60 * time.Millisecond, MaxBackoff: 250 * time.Millisecond},
			}, nil)
			for _, n := range members {
				w.Register(n, nopHandler())
			}
			from, to := ids.MSS(1).Node(), ids.MSS(2).Node()
			var m msg.Message = msg.Dereg{MH: 7, NewMSS: 2}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Send(from, to, m)
				k.Run()
			}
		})
	}
}
