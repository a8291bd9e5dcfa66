package scenario

import (
	"slices"
	"testing"

	"repro/internal/ids"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestTable holds every entry to what its two players and the three
// tools assume: a unique name, a paragraph, steps by known hosts in
// instant order, a config that builds, and a clocked run that delivers
// every request, breaks no rule, leaves nothing behind and draws.
func TestTable(t *testing.T) {
	seen := map[string]bool{}
	for _, sc := range All {
		t.Run(sc.Name, func(t *testing.T) {
			if sc.Name == "" || seen[sc.Name] {
				t.Fatalf("name %q empty or repeated", sc.Name)
			}
			seen[sc.Name] = true
			if got, err := Lookup(sc.Name); err != nil || got.Name != sc.Name {
				t.Errorf("Lookup = %q, %v", got.Name, err)
			}
			if sc.About == "" {
				t.Error("no About paragraph")
			}
			cells := sc.Config().NumMSS
			hosts := map[ids.MH]bool{}
			for _, h := range sc.Hosts {
				if hosts[h.ID] || h.Start < 1 || int(h.Start) > cells {
					t.Errorf("host %v repeated or starts outside the %d cells", h, cells)
				}
				hosts[h.ID] = true
			}
			requests := int64(0)
			for _, st := range sc.Steps {
				if !hosts[st.Host] {
					t.Errorf("step %v at %v is by unknown host %v", st.Kind, st.At, st.Host)
				}
				if st.Kind == workload.EvRequest {
					requests++
				}
			}
			if !slices.IsSortedFunc(sc.Steps, func(a, b Step) int { return int(a.At - b.At) }) {
				t.Error("steps not sorted by At")
			}

			rec := trace.New()
			w := Play(sc, rec.Observe)
			if got := w.Stats.ResultsDelivered.Value(); got != requests {
				t.Errorf("delivered %d of %d results", got, requests)
			}
			if v := w.Stats.Violations.Value(); v != 0 {
				t.Errorf("violations = %d: %v", v, w.ViolationLog())
			}
			if err := w.CheckQuiescent(); err != nil {
				t.Error(err)
			}
			if rec.Diagram(trace.DiagramOptions{}) == "" {
				t.Error("empty diagram")
			}
		})
	}
	if _, err := Lookup("fig9"); err == nil {
		t.Error("Lookup accepted an unknown name")
	}
}
