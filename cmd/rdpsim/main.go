// Command rdpsim runs one configurable RDP simulation and prints the
// protocol statistics — a workbench for exploring parameter choices
// before committing to an experiment sweep.
//
//	rdpsim -mss 8 -mhs 20 -duration 2m -residence 1s -inactive 0.2
//	rdpsim -loss 0.1 -retry 2s
//	rdpsim -no-causal            # run the E2 ablation interactively
//	rdpsim -tcp -duration 5s     # run over real loopback TCP sockets
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	rdp "repro"
	"repro/internal/ids"
	"repro/internal/livenet"
	"repro/internal/netsim"
	"repro/internal/rdpcore"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rdpsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rdpsim", flag.ContinueOnError)
	var (
		seed      = fs.Int64("seed", 1, "random seed")
		mss       = fs.Int("mss", 8, "number of support stations (cells)")
		servers   = fs.Int("servers", 2, "number of application servers")
		mhs       = fs.Int("mhs", 20, "number of mobile hosts")
		duration  = fs.Duration("duration", time.Minute, "issuing period (a half-duration drain follows)")
		residence = fs.Duration("residence", time.Second, "mean cell residence time")
		inactive  = fs.Float64("inactive", 0.2, "probability of going inactive at each cell boundary")
		interarr  = fs.Duration("interarrival", 800*time.Millisecond, "mean request interarrival per MH")
		serverMs  = fs.Duration("server", 150*time.Millisecond, "mean server processing time")
		loss      = fs.Float64("loss", 0, "wireless random loss probability")
		retry     = fs.Duration("retry", 0, "client request retry timeout (0 = off)")
		noCausal  = fs.Bool("no-causal", false, "disable causal wired delivery (ablation)")
		hold      = fs.Bool("hold", false, "enable the hold-for-inactive optimization (§5 fn.3)")
		refresh   = fs.Duration("refresh", 0, "periodic registration-refresh beacon (0 = off)")
		live      = fs.Bool("live", false, "run on the goroutine/wall-clock runtime instead of the simulation kernel")
		tcp       = fs.Bool("tcp", false, "run the protocol over real loopback TCP sockets (implies -live)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tcp {
		*live = true
	}

	cfg := rdpcore.DefaultConfig()
	cfg.Seed = *seed
	cfg.NumMSS = *mss
	cfg.NumServers = *servers
	cfg.WiredLatency = netsim.Uniform{Lo: 2 * time.Millisecond, Hi: 8 * time.Millisecond}
	cfg.WirelessLatency = netsim.Uniform{Lo: 10 * time.Millisecond, Hi: 30 * time.Millisecond}
	cfg.WirelessLoss = *loss
	cfg.Causal = !*noCausal
	cfg.HoldForInactive = *hold
	cfg.RequestTimeout = *retry
	cfg.GreetRefresh = *refresh
	cfg.ServerProc = netsim.Exponential{MeanDelay: *serverMs, Floor: *serverMs / 10}

	var (
		rt     *livenet.Runtime
		w      *rdpcore.World
		tcpNet *rdp.TCPNet
	)
	if *live {
		rt = livenet.New(*seed)
		if *tcp {
			var err error
			if w, tcpNet, err = rdp.NewTCPWorld(rt, cfg); err != nil {
				return err
			}
			defer tcpNet.Close()
			fmt.Fprintf(os.Stderr, "tcp mode: %d loopback endpoints (e.g. mss1 at %s)\n",
				*mss+*servers, tcpNet.Addr(ids.MSS(1).Node()))
		} else {
			w = rdpcore.NewWorldOn(rt, cfg)
		}
		fmt.Fprintf(os.Stderr, "live mode: this will take %v of real time\n", *duration+*duration/2)
	} else {
		w = rdpcore.NewWorld(cfg)
	}

	// Every host lives one generated script: a random itinerary with
	// inactivity, Poisson requests, and a wake-up call after the horizon.
	cells := w.StationList()
	life := workload.Script{
		Cells: cells,
		Mobility: workload.Mobility{
			Picker:            workload.UniformCells{Cells: cells},
			Residence:         netsim.Exponential{MeanDelay: *residence, Floor: *residence / 10},
			InactiveProb:      *inactive,
			InactiveDur:       netsim.Exponential{MeanDelay: 2 * *residence, Floor: *residence / 5},
			MoveWhileInactive: 0.4,
		},
		Requests: workload.Requests{
			Interarrival: netsim.Exponential{MeanDelay: *interarr, Floor: *interarr / 20},
			Servers:      w.ServerList(),
			PayloadBytes: 32,
		},
		Horizon: *duration,
		WakeAt:  *duration + 500*time.Millisecond,
	}
	pl := &workload.Player{Sched: w.Kernel, Sys: w}
	pl.Play(*mhs, life.Generate, func(id ids.MH, cell ids.MSS) { w.AddMH(id, cell) })

	start := time.Now()
	if *live {
		rt.Start()
		time.Sleep(*duration + *duration/2)
		rt.Stop()
	} else {
		w.RunUntil(*duration + *duration/2)
	}
	wall := time.Since(start)

	var missing int
	for _, is := range pl.Ledger {
		if !w.MHs[is.MH].Seen(is.Req) {
			missing++
		}
	}
	s := w.Stats
	fmt.Printf("simulated %v of virtual time in %v of wall time\n\n", *duration+*duration/2, wall.Round(time.Millisecond))
	fmt.Printf("requests issued        %8d\n", s.RequestsIssued.Value())
	fmt.Printf("results delivered      %8d  (undelivered: %d)\n", s.ResultsDelivered.Value(), missing)
	fmt.Printf("duplicate deliveries   %8d\n", s.DuplicateDeliveries.Value())
	fmt.Printf("retransmissions        %8d\n", s.Retransmissions.Value())
	fmt.Printf("request retries        %8d\n", s.RequestRetries.Value())
	fmt.Printf("hand-offs              %8d  (p95 latency %v)\n", s.Handoffs.Value(), s.HandoffLatency.Quantile(0.95).Round(time.Millisecond))
	fmt.Printf("reactivations          %8d\n", s.Reactivations.Value())
	fmt.Printf("update_currentLoc      %8d\n", s.UpdateCurrLocs.Value())
	fmt.Printf("ack forwards           %8d\n", s.AckForwards.Value())
	fmt.Printf("proxies created        %8d  (deleted %d, live %d)\n", s.ProxiesCreated.Value(), s.ProxiesDeleted.Value(), w.TotalProxies())
	fmt.Printf("wireless drops         %8d\n", s.WirelessDrops.Value())
	fmt.Printf("held results           %8d\n", s.HeldResults.Value())
	fmt.Printf("ignored acks           %8d\n", s.IgnoredAcks.Value())
	fmt.Printf("orphan messages        %8d\n", s.OrphanMessages.Value())
	fmt.Printf("protocol violations    %8d\n", s.Violations.Value())
	for _, v := range w.ViolationLog() {
		fmt.Printf("  %s\n", v)
	}
	fmt.Printf("result latency         %s\n", s.ResultLatency.Summary())
	if tcpNet != nil {
		ws := tcpNet.Stats()
		fmt.Printf("tcp wire traffic       %8d wired frames (%d B)  %d radio frames (%d B)\n",
			ws.WiredFrames, ws.WiredBytes, ws.WirelessFrames, ws.WirelessBytes)
	}

	if err := w.CheckInvariants(); err != nil {
		return fmt.Errorf("invariant check failed: %w", err)
	}
	fmt.Println("\ninvariants: OK")
	return nil
}
