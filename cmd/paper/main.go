// Command paper regenerates every table and figure of the paper's
// evaluation section (§4) from the simulator.
//
// Usage:
//
//	paper -all                        # everything, full statistical effort
//	paper -table 4.1                  # one table, all system sizes
//	paper -table 4.4 -figure 4.1      # combinations
//	paper -all -batchsize 2000        # quicker, wider confidence intervals
//
// With the default 10 batches of 8000 completions (the paper's §4.1
// parameters) a full run takes a few minutes; -batchsize 2000 is a good
// preview.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"busarb/internal/experiment"
	"busarb/internal/report"
)

func main() {
	var (
		all       = flag.Bool("all", false, "regenerate every table and figure")
		table     = flag.String("table", "", "comma-separated table ids: 4.1,4.2,4.3,4.4,4.5")
		figure    = flag.String("figure", "", "figure id: 4.1")
		batches   = flag.Int("batches", 10, "batches (paper: 10)")
		batchSize = flag.Int("batchsize", 8000, "completions per batch (paper: 8000)")
		seed      = flag.Uint64("seed", 1988, "random seed")
		parallel  = flag.Int("parallel", 4, "concurrent simulations per table (1 = sequential)")
		sizes     = flag.String("sizes", "10,30,64", "system sizes to run")
		ablations = flag.Bool("ablations", false, "also run the design-choice ablation studies")
		cost      = flag.Bool("cost", false, "print the protocol cost/fairness comparison table")
		robust    = flag.Bool("robustness", false, "run the static-vs-rotating fault-injection study")
		priority  = flag.Bool("priority", false, "run the priority-integration sweep (§2.4/§3)")
		membusF   = flag.Bool("membus", false, "run the split-vs-connected memory-bus sweep")
		svgPath   = flag.String("svg", "", "additionally write Figure 4.1 as an SVG to this path")
		waitCurve = flag.String("waitcurve", "", "write a W-vs-load SVG (all sizes) to this path")
		format    = flag.String("format", "text", "output format: text, csv, or json")
		outDir    = flag.String("outdir", "", "directory for csv/json files (default: stdout)")
	)
	flag.Parse()
	if *format != "text" && *format != "csv" && *format != "json" {
		fmt.Fprintf(os.Stderr, "paper: unknown format %q\n", *format)
		os.Exit(1)
	}
	if *format != "text" && (*ablations || *cost || *robust || *priority || *membusF) {
		fmt.Fprintf(os.Stderr, "paper: -ablations, -cost, -robustness, -priority and -membus print text only, not %s\n", *format)
		os.Exit(1)
	}

	// An explicitly given -seed counts even when it is 0: the zero seed
	// selects a real random stream, not "use the default".
	seedSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})
	opts := experiment.Opts{
		Batches: *batches, BatchSize: *batchSize,
		Seed: *seed, SeedSet: seedSet,
		Parallel: *parallel,
	}
	ns, err := parseSizes(*sizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	known := map[string]bool{"t4.1": true, "t4.2": true, "t4.3": true, "t4.4": true, "t4.5": true, "f4.1": true}
	want := map[string]bool{}
	for _, t := range strings.Split(*table, ",") {
		if t = strings.TrimSpace(t); t != "" {
			if !known["t"+t] {
				fmt.Fprintf(os.Stderr, "paper: unknown table %q (known: 4.1, 4.2, 4.3, 4.4, 4.5)\n", t)
				os.Exit(1)
			}
			want["t"+t] = true
		}
	}
	for _, f := range strings.Split(*figure, ",") {
		if f = strings.TrimSpace(f); f != "" {
			if !known["f"+f] {
				fmt.Fprintf(os.Stderr, "paper: unknown figure %q (known: 4.1)\n", f)
				os.Exit(1)
			}
			want["f"+f] = true
		}
	}
	if *all {
		for _, id := range []string{"t4.1", "t4.2", "f4.1", "t4.3", "t4.4", "t4.5"} {
			want[id] = true
		}
	}
	if len(want) == 0 && !*ablations && !*cost && !*robust && !*priority && !*membusF && *waitCurve == "" {
		flag.Usage()
		os.Exit(1)
	}
	if *membusF {
		mrows := experiment.SplitVsConnected(12, 8, 2.0,
			[]float64{0.25, 0.5, 1.0, 2.0, 4.0}, opts)
		fmt.Println(experiment.FormatSplitVsConnected(12, 8, 2.0, mrows))
	}
	if *waitCurve != "" {
		var series []report.Series
		for _, n := range ns {
			rows := experiment.Table42(n, opts)
			s := report.Series{Label: fmt.Sprintf("%d agents", n)}
			for _, r := range rows {
				s.X = append(s.X, r.Load)
				s.Y = append(s.Y, r.W)
			}
			series = append(series, s)
		}
		writeOut(filepath.Dir(*waitCurve), filepath.Base(*waitCurve), func(w io.Writer) error {
			return report.LinePlotSVG(w, "Mean waiting time vs offered load",
				"total offered load", "W (bus transaction times)", series)
		})
	}
	if *priority {
		rows := experiment.PriorityStudy(10, 2.0, []float64{0.05, 0.10, 0.25, 0.50}, opts)
		fmt.Println(experiment.FormatPriorityStudy(10, 2.0, rows))
	}
	if *cost {
		for _, n := range ns {
			fmt.Println(experiment.FormatCostTable(n, experiment.CostTable(n)))
		}
	}
	if *robust {
		const grants = 50000
		for _, n := range ns {
			rows := experiment.Robustness(n, grants, []int{0, 5000, 500, 50}, *seed)
			fmt.Println(experiment.FormatRobustness(n, grants, rows))
		}
	}

	// emit routes one artifact to the chosen format: text goes to
	// stdout; csv/json go to <outdir>/<id>.<ext> or stdout.
	emit := func(id, text string, csvFn func(io.Writer) error, rows interface{}) {
		switch *format {
		case "text":
			fmt.Println(text)
			return
		case "csv":
			writeOut(*outDir, id+".csv", csvFn)
		case "json":
			writeOut(*outDir, id+".json", func(w io.Writer) error {
				return report.TableJSON(w, rows)
			})
		}
	}

	if want["t4.1"] {
		for _, n := range ns {
			rows := experiment.Table41(n, n == 30, opts)
			emit(fmt.Sprintf("table4.1-n%d", n),
				experiment.FormatTable41(n, rows),
				func(w io.Writer) error { return report.Table41CSV(w, rows) }, rows)
		}
	}
	if want["t4.2"] {
		for _, n := range ns {
			rows := experiment.Table42(n, opts)
			emit(fmt.Sprintf("table4.2-n%d", n),
				experiment.FormatTable42(n, rows),
				func(w io.Writer) error { return report.Table42CSV(w, rows) }, rows)
		}
	}
	if want["f4.1"] {
		fig := experiment.Figure41(30, 1.5, opts)
		emit("figure4.1",
			experiment.FormatFigure41(fig),
			func(w io.Writer) error { return report.Figure41CSV(w, fig) }, fig)
		if *svgPath != "" {
			writeOut(filepath.Dir(*svgPath), filepath.Base(*svgPath), func(w io.Writer) error {
				return report.Figure41SVG(w, fig)
			})
		}
	}
	if want["t4.3"] {
		for _, n := range ns {
			rows := experiment.Table43(n, opts)
			emit(fmt.Sprintf("table4.3-n%d", n),
				experiment.FormatTable43(n, rows),
				func(w io.Writer) error { return report.Table43CSV(w, rows) }, rows)
		}
	}
	if want["t4.4"] {
		for _, factor := range []float64{2, 4} {
			rows := experiment.Table44(30, factor, opts)
			emit(fmt.Sprintf("table4.4-x%.0f", factor),
				experiment.FormatTable44(30, factor, rows),
				func(w io.Writer) error { return report.Table44CSV(w, rows) }, rows)
		}
	}
	if want["t4.5"] {
		for _, n := range ns {
			rows := experiment.Table45(n, opts)
			emit(fmt.Sprintf("table4.5-n%d", n),
				experiment.FormatTable45(n, rows),
				func(w io.Writer) error { return report.Table45CSV(w, rows) }, rows)
		}
	}
	if *ablations {
		printAblations(opts)
	}
}

// writeOut writes one artifact either to a file in dir or, with no dir,
// to stdout with a header line separating artifacts.
func writeOut(dir, name string, fn func(io.Writer) error) {
	if dir == "" {
		fmt.Printf("# %s\n", name)
		if err := fn(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Exit(1)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Exit(1)
	}
	if err := fn(f); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", filepath.Join(dir, name))
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil || n < 2 {
			return nil, fmt.Errorf("paper: bad size %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func printAblations(opts experiment.Opts) {
	fmt.Println("Ablation: FCFS1 counter width (10 agents, load 2.0)")
	fmt.Println("---------------------------------------------------")
	fmt.Println("  Bits   tN/t1           σW")
	for _, r := range experiment.AblationCounterBits(10, 2.0, opts) {
		fmt.Printf("  %4d   %-14s  %-14s\n", r.Bits, r.Ratio, r.WaitSD)
	}
	fmt.Println()

	fmt.Println("Ablation: hybrid protocol (10 agents, load 2.0)")
	fmt.Println("-----------------------------------------------")
	fmt.Println("  Protocol   tN/t1           σW")
	for _, r := range experiment.AblationHybrid(10, 2.0, opts) {
		fmt.Printf("  %-8s   %-14s  %-14s\n", r.Protocol, r.Ratio, r.WaitSD)
	}
	fmt.Println()

	fmt.Println("Ablation: RR3 empty-pass cost (10 agents)")
	fmt.Println("-----------------------------------------")
	fmt.Println("  Load    W RR1     W RR3    repasses/grant")
	for _, r := range experiment.AblationRR3(10, opts) {
		fmt.Printf("  %4.2f  %7.2f   %7.2f   %13.3f\n", r.Load, r.WaitRR1, r.WaitRR3, r.RepassesPerGrant)
	}
	fmt.Println()

	fmt.Println("Ablation: snapshot vs late-join arbitration (FCFS1, 10 agents)")
	fmt.Println("--------------------------------------------------------------")
	fmt.Println("  Load    W snapshot   W late-join")
	for _, r := range experiment.AblationSnapshot(10, opts) {
		fmt.Printf("  %4.2f  %10.2f   %11.2f\n", r.Load, r.WaitSnapshot, r.WaitLateJoin)
	}
}
