// Loadbalance: why a dynamic proxy beats a fixed home agent (paper §4).
//
// The same population of roaming hosts runs the same request workload
// under RDP and under a Mobile IP-style baseline whose home agents all
// sit on one station (a typical operator assignment). The example prints
// a per-station load histogram for both: RDP's forwarding work follows
// the users across stations, Mobile IP's funnels through the home agent.
//
//	go run ./examples/loadbalance
package main

import (
	"fmt"
	"strings"
	"time"

	rdp "repro"
)

const (
	hosts   = 12
	cells   = 6
	runFor  = 30 * time.Second
	reqGap  = 600 * time.Millisecond
	moveGap = 1500 * time.Millisecond
)

func main() {
	fmt.Printf("%d hosts roam %d cells for %v, one request every %v\n\n", hosts, cells, runFor, reqGap)

	rdpLoads := runRDP()
	printHistogram("RDP — result forwards per proxy-hosting station", rdpLoads)

	mipLoads := runMobileIP()
	printHistogram("Mobile IP — datagrams tunneled per station (homes at mss1)", mipLoads)

	fmt.Printf("Jain fairness index: RDP %.3f vs Mobile IP %.3f (1.0 = perfectly even)\n",
		rdp.JainIndex(rdpLoads), rdp.JainIndex(mipLoads))
}

func runRDP() []float64 {
	cfg := rdp.DefaultConfig()
	cfg.NumMSS = cells
	world := rdp.NewWorld(cfg)
	stations := world.StationList()
	for i := 1; i <= hosts; i++ {
		id := rdp.MH(i)
		rng := world.Kernel.RNG().Fork()
		mh := world.AddMH(id, stations[rng.Intn(len(stations))])
		scheduleRoaming(rng, stations,
			func(at time.Duration, cell rdp.MSS) { world.Schedule(at, func() { world.Migrate(id, cell) }) },
			func(at time.Duration) { world.Schedule(at, func() { mh.IssueRequest(1, []byte("q")) }) })
	}
	world.RunUntil(runFor + 10*time.Second)
	return world.Stats.ForwardLoads(stations)
}

func runMobileIP() []float64 {
	cfg := rdp.DefaultMobileIPConfig()
	cfg.NumMSS = cells
	world := rdp.NewMobileIPWorld(cfg)
	stations := world.StationList()
	for i := 1; i <= hosts; i++ {
		id := rdp.MH(i)
		rng := world.Kernel.RNG().Fork()
		mn := world.AddMH(id, stations[rng.Intn(len(stations))], 1 /* shared home */)
		scheduleRoaming(rng, stations,
			func(at time.Duration, cell rdp.MSS) { world.Kernel.Defer(at, func() { world.Migrate(id, cell) }) },
			func(at time.Duration) { world.Kernel.Defer(at, func() { mn.IssueRequest(1, []byte("q")) }) })
	}
	world.RunUntil(runFor + 10*time.Second)
	out := make([]float64, 0, len(stations))
	for _, st := range stations {
		out = append(out, float64(world.Stats.TunnelLoad[st]))
	}
	return out
}

// scheduleRoaming drives one host: a migration every ~moveGap and a
// request every ~reqGap, both jittered.
func scheduleRoaming(rng *rdp.RNG, stations []rdp.MSS,
	migrate func(at time.Duration, cell rdp.MSS), request func(at time.Duration)) {
	for at := time.Duration(0); at < runFor; at += moveGap {
		jitter := time.Duration(rng.Intn(int(moveGap / 2)))
		cell := stations[rng.Intn(len(stations))]
		migrate(at+jitter, cell)
	}
	for at := reqGap; at < runFor; at += reqGap {
		jitter := time.Duration(rng.Intn(int(reqGap / 2)))
		request(at + jitter)
	}
}

func printHistogram(title string, loads []float64) {
	fmt.Println(title)
	max := 0.0
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	for i, l := range loads {
		bar := 0
		if max > 0 {
			bar = int(l / max * 50)
		}
		fmt.Printf("  mss%-2d %6.0f %s\n", i+1, l, strings.Repeat("#", bar))
	}
	fmt.Println()
}
