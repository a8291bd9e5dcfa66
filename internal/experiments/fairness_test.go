package experiments

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/itcp"
	"repro/internal/mobileip"
	"repro/internal/netsim"
	"repro/internal/proxymig"
	"repro/internal/rdpcore"
)

// tap records everything the player hands a protocol — the (instant,
// kind, host, cell, server, payload length) of every System call — on
// its way through to the real world.
type tap struct {
	protocol
	log *[]string
}

func (t tap) note(what string, id ids.MH, arg any) {
	*t.log = append(*t.log, fmt.Sprintf("%v %s %v %v", t.sched().Now(), what, id, arg))
}

func (t tap) Migrate(id ids.MH, cell ids.MSS) {
	t.note("migrate", id, cell)
	t.protocol.Migrate(id, cell)
}

func (t tap) SetActive(id ids.MH, active bool) {
	t.note("active", id, active)
	t.protocol.SetActive(id, active)
}

func (t tap) IssueRequest(id ids.MH, srv ids.Server, payload []byte) ids.RequestID {
	t.note("request", id, fmt.Sprint(srv, len(payload)))
	return t.protocol.IssueRequest(id, srv, payload)
}

// TestSameScriptEveryProtocol is the §4 comparison's fairness as an
// assertion: at one seed, the drivers of E5/E7, E12 and E15 hand RDP and
// the baseline the same sequence of host events. That holds because each
// driver is one function of a protocol, and because the three worlds
// fork per-host RNG streams identically — a world constructor that drew
// once more from its kernel would silently give the baseline a different
// population, and this test is what would notice.
func TestSameScriptEveryProtocol(t *testing.T) {
	const seed = 4
	sc := SmallScale()
	residence := netsim.Exponential{MeanDelay: 500 * time.Millisecond, Floor: 50 * time.Millisecond}
	record := func(p protocol, run func(protocol)) []string {
		var log []string
		run(tap{p, &log})
		if len(log) < 100 {
			t.Fatalf("only %d events recorded; the run did not exercise the driver", len(log))
		}
		return log
	}
	home := homeSpread(8)
	for _, tc := range []struct {
		name          string
		rdp, baseline func() protocol
		run           func(protocol)
	}{
		{
			// E5 runs exactly this. E7 gives RDP inactive=0.15 and Mobile
			// IP 0 (its pinned rows never slept), so its two scripts differ
			// by that one argument; at equal arguments they are one script.
			name:     "E5/E7 drive, no inactivity",
			rdp:      func() protocol { return rdpWorld{rdpcore.NewWorld(baseConfig(seed))} },
			baseline: func() protocol { return mipWorld{mobileip.NewWorld(mipConfig(baseConfig(seed))), home} },
			run:      func(p protocol) { drive(p, sc, residence, 0) },
		},
		{
			name:     "E7 drive, inactivity on both",
			rdp:      func() protocol { return rdpWorld{rdpcore.NewWorld(baseConfig(seed))} },
			baseline: func() protocol { return mipWorld{mobileip.NewWorld(mipConfig(baseConfig(seed))), home} },
			run:      func(p protocol) { drive(p, sc, residence, 0.15) },
		},
		{
			name: "E12 ring walk",
			rdp:  func() protocol { return rdpWorld{rdpcore.NewWorld(e12Config(seed, proxymig.Policy{HopThreshold: 2}))} },
			baseline: func() protocol {
				return mipWorld{mobileip.NewWorld(mipConfig(e12Config(seed, proxymig.Policy{}))), func(_ ids.MH, start ids.MSS) ids.MSS { return start }}
			},
			run: func(p protocol) { e12Drive(p, sc) },
		},
		{
			name:     "E15 offered load",
			rdp:      func() protocol { return rdpWorld{rdpcore.NewWorld(e15Config(seed, 0.1, "windowed"))} },
			baseline: func() protocol { return itcpWorld{itcp.NewWorld(e15ITCPConfig(seed, 0.1))} },
			run: func(p protocol) {
				e15Play(p, sc, 2)
				p.RunUntil(sc.Horizon)
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := record(tc.rdp(), tc.run), record(tc.baseline(), tc.run)
			at := func(log []string, i int) string {
				if i < len(log) {
					return log[i]
				}
				return "(nothing)"
			}
			for i := 0; i < len(a) || i < len(b); i++ {
				if at(a, i) != at(b, i) {
					t.Fatalf("RDP was handed %d events, the baseline %d; they part at event %d:\n rdp      %s\n baseline %s",
						len(a), len(b), i, at(a, i), at(b, i))
				}
			}
		})
	}
}
