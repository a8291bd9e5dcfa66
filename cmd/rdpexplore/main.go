// Command rdpexplore runs the message-order adversary against the RDP
// protocol: deliveries fire in controller-chosen orders rather than
// latency order, probing interleavings no latency assignment produces.
//
//	rdpexplore                          # random walks over every scenario gated on them
//	rdpexplore -schedules 5000          # more samples per scenario
//	rdpexplore -exhaustive              # enumerate the tiny scenarios' trees
//	rdpexplore -exhaustive -budget 1e6  # enumerate a larger tree
//
// The scenarios are those of internal/scenario's table whose Gate is
// Walks or Tree (walked) and Tree (enumerated).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/explore"
	"repro/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rdpexplore:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rdpexplore", flag.ContinueOnError)
	var (
		schedules  = fs.Int("schedules", 1000, "random schedules per scenario")
		seed       = fs.Int64("seed", 1, "base seed for schedule choices")
		exhaustive = fs.Bool("exhaustive", false, "systematically enumerate the tiny scenarios' schedule trees")
		budget     = fs.Float64("budget", 200000, "schedule budget per scenario for -exhaustive")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	failures := 0
	errf := func(format string, a ...any) {
		failures++
		fmt.Printf("FAIL: "+format+"\n", a...)
	}

	// Walks take every scenario gated on the adversary; -exhaustive
	// takes those whose trees are small. The migration and sleep trees
	// enumerate completely within the default budget; the bounce tree
	// exceeds two million schedules, so its run is a systematic DFS
	// prefix unless -budget is raised.
	for _, sc := range scenario.All {
		start := time.Now()
		switch {
		case *exhaustive && sc.Gate == scenario.Tree:
			res := explore.RunExhaustive(sc, int(*budget), errf)
			fmt.Printf("exhaustive %-28q %7d schedules, complete=%-5t max depth %2d, %v\n",
				sc.Name, res.Schedules, res.Complete, res.MaxDepth,
				time.Since(start).Round(time.Millisecond))
		case !*exhaustive && sc.Gate != scenario.Clock:
			res := explore.Run(sc, *seed, *schedules, errf)
			fmt.Printf("%-32s %5d schedules  %7d firings  %v\n",
				sc.Name, *schedules, res.TotalFirings, time.Since(start).Round(time.Millisecond))
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d property failures", failures)
	}
	if !*exhaustive {
		fmt.Println("all schedules satisfied safety and liveness")
	}
	return nil
}
