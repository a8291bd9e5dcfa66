package experiments

import (
	"time"

	"repro/internal/ids"
	"repro/internal/itcp"
	"repro/internal/mobileip"
	"repro/internal/netsim"
	"repro/internal/rdpcore"
	"repro/internal/sim"
	"repro/internal/workload"
)

// protocol is one protocol's world as the experiments drive it: the
// script surface (workload.System) plus how to admit a host, advance
// time and ask what arrived. RDP and the §4 baselines are driven only
// through it, so a comparison hands every protocol the same script.
type protocol interface {
	workload.System
	StationList() []ids.MSS
	ServerList() []ids.Server
	RunUntil(time.Duration)
	sched() sim.Scheduler
	addHost(id ids.MH, cell ids.MSS)
	seen(id ids.MH, req ids.RequestID) bool
}

type (
	rdpWorld  struct{ *rdpcore.World }
	itcpWorld struct{ *itcp.World }
	// mipWorld fixes each host's home agent when it is admitted: home
	// gets the host and its start cell.
	mipWorld struct {
		*mobileip.World
		home func(id ids.MH, start ids.MSS) ids.MSS
	}
)

func (p rdpWorld) sched() sim.Scheduler                  { return p.Kernel }
func (p rdpWorld) addHost(id ids.MH, cell ids.MSS)       { p.AddMH(id, cell) }
func (p rdpWorld) seen(id ids.MH, r ids.RequestID) bool  { return p.MHs[id].Seen(r) }
func (p itcpWorld) sched() sim.Scheduler                 { return p.Kernel }
func (p itcpWorld) addHost(id ids.MH, cell ids.MSS)      { p.AddMH(id, cell) }
func (p itcpWorld) seen(id ids.MH, r ids.RequestID) bool { return p.Node(id).Seen(r) }
func (p mipWorld) sched() sim.Scheduler                  { return p.Kernel }
func (p mipWorld) addHost(id ids.MH, cell ids.MSS)       { p.AddMH(id, cell, p.home(id, cell)) }
func (p mipWorld) seen(id ids.MH, r ids.RequestID) bool  { return p.Node(id).Seen(r) }

// homeSpread deals home agents round-robin over n stations — Mobile
// IP's best static assignment.
func homeSpread(n int) func(ids.MH, ids.MSS) ids.MSS {
	return func(id ids.MH, _ ids.MSS) ids.MSS { return ids.MSS(int(id)%n + 1) }
}

// mipConfig is the Mobile IP baseline on cfg's network.
func mipConfig(cfg rdpcore.Config) mobileip.Config {
	m := mobileip.DefaultConfig()
	m.Seed, m.NumMSS, m.NumServers = cfg.Seed, cfg.NumMSS, cfg.NumServers
	m.WiredLatency, m.WiredPairLatency = cfg.WiredLatency, cfg.WiredPairLatency
	m.WirelessLatency, m.ServerProc = cfg.WirelessLatency, cfg.ServerProc
	return m
}

// play schedules a population of hosts 1..n on p, each living the life
// drawn from its own RNG (a Script's Generate, usually), and returns the
// player, whose ledger fills as the run issues requests.
func play(p protocol, n int, life func(*sim.RNG) (ids.MSS, []workload.Event)) *workload.Player {
	pl := &workload.Player{Sched: p.sched(), Sys: p}
	pl.Play(n, life, p.addHost)
	return pl
}

// delivery is the reading of a ledger after the run: how many requests
// were issued and how many of them arrived.
type delivery struct{ issued, delivered int64 }

// ratio is the delivered fraction (0 for an empty ledger).
func (d delivery) ratio() float64 {
	if d.issued == 0 {
		return 0
	}
	return float64(d.delivered) / float64(d.issued)
}

func tally(p protocol, ledger []workload.Issued) delivery {
	d := delivery{issued: int64(len(ledger))}
	for _, is := range ledger {
		if p.seen(is.MH, is.Req) {
			d.delivered++
		}
	}
	return d
}

// drive runs the standard workload over a protocol's world: every MH
// follows a random itinerary with the given mean cell-residence time
// (and optional inactivity), issuing Poisson requests during the
// horizon; hosts still asleep then are woken and the world drains.
func drive(p protocol, sc Scale, residence workload.Sampler, inactiveProb float64) delivery {
	pl := play(p, sc.MHs, workload.Script{
		Cells: p.StationList(),
		Mobility: workload.Mobility{
			Picker:            workload.UniformCells{Cells: p.StationList()},
			Residence:         residence,
			InactiveProb:      inactiveProb,
			InactiveDur:       netsim.Exponential{MeanDelay: 2 * residence.Mean(), Floor: residence.Mean() / 5},
			MoveWhileInactive: 0.4,
		},
		Requests: workload.Requests{
			Interarrival: netsim.Exponential{MeanDelay: 800 * time.Millisecond, Floor: 20 * time.Millisecond},
			Servers:      p.ServerList(),
			PayloadBytes: 32,
		},
		Horizon: sc.Horizon,
		WakeAt:  sc.Horizon + 500*time.Millisecond,
	}.Generate)
	p.RunUntil(sc.Horizon + sc.Horizon/2)
	return tally(p, pl.Ledger)
}
