// Command rdptrace replays the paper's worked protocol examples — or any
// other scenario of internal/scenario's table — and prints the full
// message trace, so the flow of Figures 3 and 4 can be read line by line:
//
//	rdptrace -scenario fig3     # single request, two migrations
//	rdptrace -scenario fig4     # three requests, proxy life-cycle
//	rdptrace -scenario mig1     # proxy migration: offer/commit/state/redirect/gc
//	rdptrace -scenario fig3 -all   # include sent/dropped events too
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/scenario"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rdptrace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rdptrace", flag.ContinueOnError)
	var (
		name = fs.String("scenario", "fig3", "scenario to replay: "+scenario.Names())
		all  = fs.Bool("all", false, "print sent and dropped events, not only deliveries")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := scenario.Lookup(*name)
	if err != nil {
		return err
	}
	fmt.Println(sc.About)
	fmt.Println()

	rec := trace.New()
	w := scenario.Play(sc, rec.Observe)
	entries := rec.Deliveries()
	if *all {
		entries = rec.Entries()
	}
	for _, e := range entries {
		fmt.Println(e)
	}

	fmt.Printf("\nsummary: delivered=%d duplicates=%d retransmissions=%d proxies created=%d deleted=%d migrations=%d violations=%d\n",
		w.Stats.ResultsDelivered.Value(), w.Stats.DuplicateDeliveries.Value(),
		w.Stats.Retransmissions.Value(), w.Stats.ProxiesCreated.Value(),
		w.Stats.ProxiesDeleted.Value(), w.Stats.MigCompleted.Value(), w.Stats.Violations.Value())
	return nil
}
