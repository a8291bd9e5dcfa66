package rdpcore

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// statsCounters returns every Counter field of a Stats by name.
func statsCounters(st *Stats) map[string]int64 {
	out := map[string]int64{}
	v := reflect.ValueOf(st).Elem()
	for i := 0; i < v.NumField(); i++ {
		if c, ok := v.Field(i).Addr().Interface().(*metrics.Counter); ok {
			out[v.Type().Field(i).Name] = c.Value()
		}
	}
	return out
}

// TestStatsIndependentOfObserver: the world counts without a tap. One
// chaos run — lossy, duplicating wired links under ARQ, station crashes,
// bounded queues shedding on both substrates, proxy migration and a lossy
// windowed radio — is played with a nil Config.Observer and with a
// recording one. Drops are counted through the substrates' drop hook and
// hand-off and migration traffic where stations and servers send it, so
// every Stats counter and the kernel's step count must agree.
func TestStatsIndependentOfObserver(t *testing.T) {
	run := func(obs netsim.Observer) (map[string]int64, uint64) {
		w, _, _, _ := chaos(t, chaosParams{
			seed: 2, mhs: 6, cells: 5, recovery: true, overload: true, migrate: true, windowed: true,
			observer: obs, horizon: 40 * time.Second, drainFor: 15 * time.Second,
		})
		return statsCounters(w.Stats), w.Kernel.(*sim.Kernel).Steps()
	}
	bare, bareSteps := run(nil)
	events := 0
	tapped, tappedSteps := run(func(sim.Time, netsim.Layer, netsim.EventKind, ids.NodeID, ids.NodeID, msg.Message) {
		events++
	})
	if events == 0 {
		t.Fatal("the recording observer saw nothing")
	}
	if !reflect.DeepEqual(bare, tapped) || bareSteps != tappedSteps {
		for name, v := range bare {
			if tapped[name] != v {
				t.Errorf("%s: %d without an observer, %d with one", name, v, tapped[name])
			}
		}
		t.Fatalf("kernel steps: %d without an observer, %d with one", bareSteps, tappedSteps)
	}
	for _, name := range []string{"WiredDrops", "WirelessDrops", "NetworkShed", "HandoffStateBytes", "MigMessages", "MigStateBytes"} {
		if bare[name] == 0 {
			t.Errorf("%s = 0: the run never exercised what it guards", name)
		}
	}
}
