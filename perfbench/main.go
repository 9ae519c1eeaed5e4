// Command perfbench is the repository's benchmark. It runs one of four
// closed-loop workloads, two through the §4 simulators (busarb.Simulate)
// and two through an in-process arbd daemon (the public client package
// over the binary transport), checks every output, and prints each
// metric by name with its unit and sample count. Its last line of
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced run records spans around the benchmark's calls into each layer
// and prints the per-layer metrics and the tracing overhead.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload sim-paper --seed 1 --seconds 20 --trace 0
//
// The benchmark is a Go module of its own (busarb/perfbench, with the
// repository replaced in from the parent directory), so its build never
// touches the repository's; its unit tests run with
// `cd perfbench && go test ./...`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one printed number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sim-paper, sim-1024, serve-solo or serve-contended")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 20, "seconds to measure")
	trace := fs.Int("trace", 0, "1 for the traced run that prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *seconds <= 0 || *seconds > 600:
		fmt.Fprintf(stderr, "perfbench: --seconds %v out of (0, 600]\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	b := newBench(w, *seed, time.Duration(*seconds*float64(time.Second)), stdout, stderr)
	var res *result
	var err error
	if *trace == 1 {
		res, err = b.traced(spanPath(w.name, *seed))
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// spanPath is where the traced run writes its spans: the build
// directory inside the checkout.
func spanPath(workload string, seed uint64) string {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	return filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
}

// printMetrics writes one line per metric, sorted by name, with the
// sample count behind it where there is one.
func printMetrics(out io.Writer, title string, ms map[string]metric, samples map[string]string) {
	fmt.Fprintf(out, "%s\n", title)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %16.6g %-6s %s\n", n, ms[n].Value, ms[n].Unit, samples[n])
	}
}
