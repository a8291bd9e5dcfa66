// Benchmarks regenerating the paper's evaluation: one sub-benchmark per
// entry of experiments.Registry (E1–E18, DESIGN §2) plus the Figure 3/4
// and migration scenario replays. Each iteration runs the full
// experiment at test scale and reports its headline quantities as
// custom metrics, so
//
//	go test -bench=. -benchmem
//
// both exercises every experiment end-to-end and surfaces the measured
// shape next to the timing. cmd/rdpbench prints the full tables at
// standard scale; EXPERIMENTS.md records them against the paper.
package rdp_test

import (
	"testing"

	rdp "repro"
	"repro/internal/experiments"
	"repro/internal/rdpcore"
	"repro/internal/scenario"
)

// BenchmarkExperiments runs every registry entry at the scale that
// keeps one iteration in the tens-of-milliseconds range, a fresh seed
// per iteration, and reports the last iteration's headlines (the values
// internal/experiments pins at seed 1).
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry {
		b.Run(e.Name, func(b *testing.B) {
			var hs []experiments.Headline
			for i := 0; i < b.N; i++ {
				hs = e.Headlines(int64(i+1), experiments.SmallScale(), experiments.Opts{})
			}
			for _, h := range hs {
				b.ReportMetric(h.Value, h.Name)
			}
		})
	}
}

// replay plays one scenario of internal/scenario's table on the clock.
func replay(b *testing.B, name string) *rdpcore.World {
	sc, err := scenario.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	return scenario.Play(sc, nil)
}

// BenchmarkFigure3Replay regenerates the Figure 3 worked example
// (trace-validated in internal/rdpcore's scenario tests).
func BenchmarkFigure3Replay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := replay(b, "fig3")
		if w.Stats.ResultsDelivered.Value() != 1 {
			b.Fatal("figure 3 replay did not deliver")
		}
	}
}

// BenchmarkFigure4Replay regenerates the Figure 4 worked example.
func BenchmarkFigure4Replay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := replay(b, "fig4")
		if w.Stats.ResultsDelivered.Value() != 3 {
			b.Fatal("figure 4 replay did not deliver")
		}
	}
}

// BenchmarkMigrationReplay regenerates the mig1 worked example
// (trace-pinned in internal/experiments' golden tests).
func BenchmarkMigrationReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := replay(b, "mig1")
		if w.Stats.MigCompleted.Value() != 1 {
			b.Fatal("migration replay did not complete a migration")
		}
	}
}

// BenchmarkTCPRoundTrip measures one request→result round trip over the
// real-socket transport (internal/tcpnet): MH radio frame to the
// station's TCP endpoint, causally stamped wired frame to the server,
// and the result back down. Not a paper experiment — it quantifies the
// cost of the authors' planned process-based deployment relative to the
// simulated substrate.
func BenchmarkTCPRoundTrip(b *testing.B) {
	rt := rdp.NewLiveRuntime(1)
	cfg := rdp.DefaultConfig()
	cfg.ServerProc = rdp.Constant(0)
	world, net, err := rdp.NewTCPWorld(rt, cfg)
	if err != nil {
		b.Fatalf("NewTCPWorld: %v", err)
	}
	defer net.Close()
	rt.Start()
	defer rt.Stop()
	results := make(chan struct{}, 1)
	rt.Do(func() {
		mh := world.AddMH(1, 1)
		mh.OnResult(func(_ rdp.RequestID, _ []byte, dup bool) {
			if !dup {
				results <- struct{}{}
			}
		})
	})
	payload := []byte("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Do(func() { world.MHs[1].IssueRequest(1, payload) })
		<-results
	}
}
