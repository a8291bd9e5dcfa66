package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rdpcore"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// replay plays a scenario of the table on the clock.
func replay(t *testing.T, name string, rec *trace.Recorder) *rdpcore.World {
	t.Helper()
	sc, err := scenario.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return scenario.Play(sc, rec.Observe)
}

// The figure replays are pinned to golden traces: every event (sends,
// deliveries, drops), its timing, endpoints and flags must match the
// checked-in files byte for byte. This freezes both the protocol
// behaviour and the simulator's determinism; any intentional protocol
// change must regenerate the goldens consciously.
func TestFigureReplaysMatchGoldenTraces(t *testing.T) {
	for _, name := range []string{"fig3", "fig4", "mig1"} {
		t.Run(name, func(t *testing.T) {
			rec := trace.New()
			replay(t, name, rec)
			got := rec.String()
			goldenPath := filepath.Join("testdata", name+".trace")
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("read golden: %v", err)
			}
			if got != string(want) {
				t.Errorf("trace diverged from %s;\nregenerate deliberately if the protocol changed.\ngot:\n%s", goldenPath, got)
			}
		})
	}
}
