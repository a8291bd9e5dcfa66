// Command perf is the repository's benchmark: one invocation runs one
// workload and prints every metric by name. See README.md.
//
//	go run ./perf -workload cell_mobility -seed 1 [-seconds 20] [-trace 1]
//	go run ./perf -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// defaultSeed is the seed used when -seed is not given.
const defaultSeed = 1

// defaultSeconds is the timed-phase budget when -seconds is not given
// (BENCHMARK.json's run_seconds).
const defaultSeconds = 18

func workloadNames() []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return names
}

// describeJSON renders BENCHMARK.json from the metric and workload tables
// (a test keeps the file at the root in step with it).
func describeJSON() []byte {
	type workloadDoc struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eDoc struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerDoc struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDoc `json:"workloads"`
		EndToEnd   []e2eDoc      `json:"end_to_end"`
		PerLayer   []layerDoc    `json:"per_layer"`
	}{Command: []string{"bash", "perf/run.sh"}, Paths: []string{"perf"}, RunSeconds: defaultSeconds}
	for _, s := range specs {
		doc.Workloads = append(doc.Workloads, workloadDoc{s.name, s.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eDoc{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerDoc{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers
	}
	return out
}

// reportLine is the driver's contract: the last line of standard output.
type reportLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func contractLine(res *result, defs []metricDef, values map[string]float64) reportLine {
	line := reportLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return line
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed      = flag.Int64("seed", defaultSeed, "input-generation seed (itineraries, arrivals, fault plan, scripts)")
		seconds   = flag.Float64("seconds", defaultSeconds, "timed-phase budget: repetitions stop after this long (never fewer than 5, never more than 7)")
		trace     = flag.Int("trace", 0, "1 runs the traced run (per-layer metrics) instead of the end-to-end run")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and print how far the two runs differ against each metric's bound")
		describe  = flag.Bool("describe", false, "print the benchmark's contract (BENCHMARK.json: command, workloads, every metric with unit, direction and bound) and exit")
		outDir    = flag.String("out", "perf/out", "directory the traced run writes its span file to")
	)
	flag.Parse()

	if *describe {
		fmt.Println(string(describeJSON()))
		return
	}
	if *selfcheck {
		os.Exit(runSelfcheck(*seed, *seconds))
	}
	s := specByName(*name)
	if s == nil {
		fmt.Fprintf(os.Stderr, "perf: unknown workload %q (have: %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}

	var res *result
	var line reportLine
	if *trace != 0 {
		res = runTraced(s, *seed, *outDir)
		line = contractLine(res, perLayer, res.PerLayer)
	} else {
		res = runEndToEnd(s, *seed, *seconds)
		line = contractLine(res, endToEnd, res.EndToEnd)
	}

	// The full report first (every metric with unit, direction and bound,
	// plus the informational raw block), then the one-line summary.
	report := struct {
		*result
		EndToEndDefs []metricDef `json:"end_to_end_metrics,omitempty"`
		PerLayerDefs []metricDef `json:"per_layer_metrics,omitempty"`
	}{result: res}
	if *trace != 0 {
		report.PerLayerDefs = perLayer
	} else {
		report.EndToEndDefs = endToEnd
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perf: run failed:", res.Error)
		os.Exit(1)
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
