// Command rdpbench regenerates the evaluation of the RDP paper: every
// experiment (E1–E18, DESIGN §2) as a printed table. Run all of them,
// or a subset:
//
//	rdpbench                 # everything, standard scale
//	rdpbench -exp e3,e5      # selected experiments
//	rdpbench -quick          # reduced scale (seconds instead of minutes)
//	rdpbench -seed 7         # different random seed
//	rdpbench -parallel 4     # run experiments concurrently
//	rdpbench -exp e13 -regions 2 -serial   # e13 at a fixed partition, serial
//	rdpbench -exp e14 -e14tier 64:50000:16:3 -workers 8   # one e14 row at a chosen tier
//	rdpbench -cpuprofile cpu.pprof         # profile the run
//
// The experiments themselves — claim line, tables, headline — are the
// entries of experiments.Registry; this command only selects and
// prints them. Experiments are independent simulations, so -parallel
// runs them on separate goroutines; each renders into its own buffer
// and the buffers are emitted in registry order, so the output is
// byte-identical to a serial run.
//
// The tables printed here are the source of EXPERIMENTS.md.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rdpbench:", err)
		os.Exit(1)
	}
}

// positiveInts parses a comma-separated list of integers >= 1 ("" is
// the empty list).
func positiveInts(flagName, s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -%s value %q", flagName, part)
		}
		out = append(out, n)
	}
	return out, nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rdpbench", flag.ContinueOnError)
	var (
		expFlag = fs.String("exp", "all", "comma-separated experiments to run (e1..e18 or all)")
		seed    = fs.Int64("seed", 1, "random seed")
		quick   = fs.Bool("quick", false, "reduced scale for a fast pass")
		csv     = fs.Bool("csv", false, "emit tables as CSV instead of aligned text")
		par     = fs.Int("parallel", 1, "experiments to run concurrently (output order is unchanged)")
		regions = fs.String("regions", "", "comma-separated region counts for e13 (default: the scale's sweep)")
		serial  = fs.Bool("serial", false, "run the e13 parallel engine with one worker (the serial reference)")
		workers = fs.String("workers", "", "comma-separated worker counts for e14 (default: the scale's sweep)")
		e14tier = fs.String("e14tier", "", "e14 tier override as cells:mhs:regions:horizonSec (e.g. 64:50000:16:3)")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf = fs.String("memprofile", "", "write a heap profile taken after the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var opts experiments.Opts
	var err error
	if opts.E13Regions, err = positiveInts("regions", *regions); err != nil {
		return err
	}
	if *serial {
		opts.E13Workers = 1
	}
	if opts.E14Workers, err = positiveInts("workers", *workers); err != nil {
		return err
	}
	if *e14tier != "" {
		tier, ok := experiments.ParseE14Tier(*e14tier)
		if !ok {
			return fmt.Errorf("bad -e14tier value %q (want cells:mhs:regions:horizonSec)", *e14tier)
		}
		opts.E14Tiers = []experiments.E14Tier{tier}
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			os.Remove(*cpuProf)
			return err
		}
		// Runs on every exit path, early errors included: the profile is
		// flushed by StopCPUProfile before the close, and a close failure
		// (full disk, dead NFS handle) is reported instead of silently
		// truncating the profile.
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "rdpbench: cpuprofile:", err)
			}
		}()
	}
	if *memProf != "" {
		// Create up front so an unwritable path fails before the run, not
		// after minutes of benchmarking.
		f, err := os.Create(*memProf)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "rdpbench: memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "rdpbench: memprofile:", err)
			}
		}()
	}
	sc := experiments.DefaultScale()
	if *quick {
		sc = experiments.SmallScale()
	}

	want := make(map[string]bool)
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	var sel []experiments.Experiment
	for _, e := range experiments.Registry {
		if want["all"] || want[e.Name] {
			sel = append(sel, e)
		}
	}
	if len(sel) == 0 {
		return fmt.Errorf("no experiment matched %q (use e1..e18 or all)", *expFlag)
	}

	if *par <= 1 {
		for _, e := range sel {
			e.Render(stdout, *seed, sc, opts, *csv)
		}
		return nil
	}

	// Parallel: every experiment renders into a private buffer; buffers
	// are then written in selection order, so output bytes are identical
	// to the serial path regardless of scheduling.
	bufs := make([]bytes.Buffer, len(sel))
	sem := make(chan struct{}, *par)
	var wg sync.WaitGroup
	for i, e := range sel {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			e.Render(&bufs[i], *seed, sc, opts, *csv)
		}()
	}
	wg.Wait()
	for i := range bufs {
		if _, err := stdout.Write(bufs[i].Bytes()); err != nil {
			return err
		}
	}
	return nil
}
