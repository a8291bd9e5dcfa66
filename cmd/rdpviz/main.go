// Command rdpviz renders the paper's worked examples — or any other
// scenario of internal/scenario's table — as ASCII space-time diagrams,
// the visual form of the paper's Figures 3 and 4 (one lane per node,
// time flowing downward, one labeled arrow per message).
//
//	rdpviz -scenario fig3            # Figure 3: migration chases a result
//	rdpviz -scenario fig4 -drops     # Figure 4, including lost frames
//	rdpviz -scenario e15 -drops      # E15: windowed downlink, coalescing, SACK, RTO repair
//	rdpviz -scenario fig3 -width 18  # wider lanes for long labels
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
		fmt.Fprintln(os.Stderr, "rdpviz:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rdpviz", flag.ContinueOnError)
	var (
		name  = fs.String("scenario", "fig3", "scenario to draw: "+scenario.Names())
		width = fs.Int("width", 14, "columns per node lane")
		drops = fs.Bool("drops", false, "draw dropped frames (head 'x')")
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
	scenario.Play(sc, rec.Observe)
	fmt.Print(rec.Diagram(trace.DiagramOptions{LaneWidth: *width, ShowDrops: *drops}))
	return nil
}
