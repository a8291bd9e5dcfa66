package scenario

import (
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/proxymig"
	"repro/internal/rdpcore"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/wtp"
)

const ms = time.Millisecond

// All is the table: every fixed scenario the tools, the golden traces,
// the benchmarks and the explorer know, by name.
var All = []Scenario{
	{
		Name: "fig3",
		About: "Figure 3 — single request; the MH migrates MssP(mss1) -> MssO(mss2) -> MssN(mss3)\n" +
			"while the result is in flight. The forward to mss2 is lost; the update from mss3\n" +
			"triggers the retransmission that delivers, and the Ack carries del-proxy.",
		Config: figureNet(3, 100*ms),
		Hosts:  []Host{{1, 1}},
		Steps:  []Step{request(0, "q"), migrate(20*ms, 2), migrate(126*ms, 3)},
		Gate:   Walks,
	},
	{
		Name: "fig4",
		About: "Figure 4 — requests A, B, C overlap on one proxy at mss1 while the MH sits at mss2.\n" +
			"Watch RKpR arm on resultA's del-pref, clear on requestB, and the del-pref-only\n" +
			"special message after AckB; AckC finally carries del-proxy.",
		Config: figureNet(3, 30*ms, 60*ms, 55*ms),
		Hosts:  []Host{{1, 1}},
		Steps:  []Step{request(0, "A"), migrate(20*ms, 2), request(60*ms, "B"), request(80*ms, "C")},
		Gate:   Walks,
	},
	{
		// Gate stays Clock because the explorer still drains kernel timers
		// (the tombstone linger among them) between picks instead of
		// scheduling them (ROADMAP item 2(a)); under the adversary mig1
		// records no violation (explore's TestMigrationUnderAdversary).
		Name: "mig1",
		About: "Migration — two requests share a proxy at mss1; the MH moves to mss2 at 50ms.\n" +
			"The fast result's remote forward fires the hop trigger: watch mig-offer,\n" +
			"mig-commit, mig-state move the proxy, pref-redirect rebind the pending server\n" +
			"(and its confirm echo), and mig-gc collect the tombstone. The slow result\n" +
			"then takes the direct path from the migrated proxy.",
		Config: func() rdpcore.Config {
			cfg := figureNet(3, 800*ms, 250*ms)()
			cfg.Migration = proxymig.Policy{HopThreshold: 1}
			return cfg
		},
		Hosts: []Host{{1, 1}},
		Steps: []Step{request(0, "slow"), request(5*ms, "fast"), migrate(50*ms, 2)},
	},
	{
		Name: "e15",
		About: "E15 — three results over the windowed downlink: coalesced wtp-data frames, a dropped\n" +
			"frame (rdpviz -drops shows it), the SACK from the out-of-order arrival, and the\n" +
			"RTO retransmission that repairs the hole.",
		Config: func() rdpcore.Config {
			cfg := figureNet(2, 30*ms, 32*ms, 34*ms)()
			cfg.WirelessWTP = wtp.Config{Enabled: true, Window: 4, CoalesceDelay: 5 * ms}
			dropped := false
			cfg.WirelessDropFilter = func(_, _ ids.NodeID, m msg.Message) bool {
				if m.Kind() == msg.KindWtpData && !dropped {
					dropped = true
					return true
				}
				return false
			}
			return cfg
		},
		Hosts: []Host{{1, 1}},
		Steps: []Step{request(0, "A"), request(2*ms, "B"), request(4*ms, "C")},
	},
	{
		Name:   "tiny-request-vs-migration",
		About:  "The smallest interesting race: one request and one migration.",
		Config: figureNet(2, 150*ms),
		Hosts:  []Host{{1, 1}},
		Steps:  []Step{request(0, "q"), migrate(100*ms, 2)},
		Gate:   Tree,
	},
	{
		Name: "tiny-request-vs-sleep",
		About: "One request racing an inactivity window (§3.2's \"MH becomes inactive\" case and §5\n" +
			"footnote 3's motivation): the result may reach the cell before the host sleeps,\n" +
			"while it sleeps, or after it wakes.",
		Config: figureNet(2, 150*ms),
		Hosts:  []Host{{1, 1}},
		Steps:  []Step{request(0, "q"), sleep(100 * ms), wake(400 * ms)},
		Gate:   Tree,
	},
	{
		Name: "tiny-request-vs-bounce",
		About: "A request issued at the old station races a there-and-back migration — the bounce\n" +
			"behind the ignoreAcks/arriving machinery of §3.2's hand-off, at its smallest.",
		Config: figureNet(2, 150*ms),
		Hosts:  []Host{{1, 1}},
		Steps:  []Step{request(0, "q"), migrate(100*ms, 2), migrate(178*ms, 1)},
		Gate:   Tree,
	},
	{
		Name:   "single-request-two-migrations",
		About:  "One request, two migrations; on the clock both hand-offs finish before the result arrives.",
		Config: figureNet(3, 150*ms),
		Hosts:  []Host{{1, 1}},
		Steps:  []Step{request(0, "q"), migrate(60*ms, 2), migrate(120*ms, 3)},
		Gate:   Walks,
	},
	{
		Name: "bounce-back-overlap",
		About: "The bounce-back race behind the HaveOutstanding completion: overlapping requests\n" +
			"while the host ping-pongs between two cells.",
		Config: figureNet(2, 150*ms),
		Hosts:  []Host{{1, 1}},
		Steps: []Step{request(0, "q"), migrate(100*ms, 2), request(150*ms, "q"),
			migrate(178*ms, 1), migrate(330*ms, 2), request(400*ms, "q")},
		Gate: Walks,
	},
	{
		Name:   "sleep-carry-wake",
		About:  "Inactivity racing delivery: the host sleeps, is carried to another cell, and wakes there.",
		Config: figureNet(3, 150*ms),
		Hosts:  []Host{{1, 1}},
		Steps: []Step{request(0, "a"), sleep(100 * ms), migrate(200*ms, 3), wake(400 * ms),
			request(450*ms, "b")},
		Gate: Walks,
	},
	{
		Name:   "two-hosts-crossing",
		About:  "Two hosts whose hand-off chains interleave at shared stations.",
		Config: figureNet(3, 150*ms),
		Hosts:  []Host{{1, 1}, {2, 3}},
		Steps: []Step{request(0, "a"), request(10*ms, "b").by(2),
			migrate(100*ms, 2), migrate(110*ms, 2).by(2),
			migrate(250*ms, 3), migrate(260*ms, 1).by(2)},
		Gate: Walks,
	},
	{
		Name: "overtaken-greet-stale-forward",
		About: "E2's registration split at its smallest: the host has visited mss2 and mss3 before,\n" +
			"each keeps a forwarding pointer from then, and it moves to mss3 and straight on to\n" +
			"mss2. When the greet to mss2 overtakes the one to mss3, mss3's dereg follows its\n" +
			"stale pointer to the registration mss2 already holds; refused as older, it cannot\n" +
			"take the pref to mss3 while the host listens to mss2.",
		Config: figureNet(3, 150*ms),
		Hosts:  []Host{{1, 1}},
		Steps: []Step{migrate(50*ms, 2), migrate(100*ms, 3), migrate(150*ms, 1),
			migrate(200*ms, 3), migrate(210*ms, 2), request(300*ms, "q")},
		Gate: Walks,
	},
}

// The step constructors act on host 1 and server 1; by re-addresses a
// step to another host.
func request(at time.Duration, payload string) Step {
	return Step{1, workload.Event{At: at, Kind: workload.EvRequest, Server: 1, Payload: []byte(payload)}}
}

func migrate(at time.Duration, cell ids.MSS) Step {
	return Step{1, workload.Event{At: at, Kind: workload.EvMigrate, Cell: cell}}
}

func sleep(at time.Duration) Step {
	return Step{1, workload.Event{At: at, Kind: workload.EvDeactivate}}
}

func wake(at time.Duration) Step { return Step{1, workload.Event{At: at, Kind: workload.EvWake}} }

func (s Step) by(h ids.MH) Step {
	s.Host = h
	return s
}

// figureNet is the deterministic network of the worked examples:
// rdpcore.DefaultConfig (5ms wired, causal order, Ack priority) with
// 10ms wireless and a server whose processing time is scripted per
// request, in arrival order.
func figureNet(stations int, proc ...time.Duration) func() rdpcore.Config {
	return func() rdpcore.Config {
		cfg := rdpcore.DefaultConfig()
		cfg.NumMSS = stations
		cfg.WirelessLatency = netsim.Constant(10 * ms)
		cfg.ServerProc = &scriptedProc{delays: proc}
		return cfg
	}
}

// scriptedProc replays a fixed sequence of processing delays; the last
// one repeats.
type scriptedProc struct {
	delays []time.Duration
	i      int
}

// Sample implements netsim.LatencyModel.
func (s *scriptedProc) Sample(*sim.RNG) time.Duration {
	d := s.delays[s.i]
	if s.i < len(s.delays)-1 {
		s.i++
	}
	return d
}

// Mean implements netsim.LatencyModel.
func (s *scriptedProc) Mean() time.Duration { return 0 }
