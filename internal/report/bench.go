// Benchmark-trajectory support: parse the text output of
// `go test -bench -benchmem` into structured records and serialize them
// as the repository's BENCH_<date>.json files, so every PR can append a
// comparable snapshot of the simulator's performance (see `make
// bench-json`).
package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// BenchResult is one benchmark: its parsed line, or the fold of its
// repeats under `go test -count N`. The standard ns/op, B/op and
// allocs/op measurements get dedicated fields; everything else (the
// domain metrics the suite reports via b.ReportMetric, e.g.
// "peak-FCFS-ratio") lands in Metrics keyed by unit.
type BenchResult struct {
	Name        string             `json:"name"`
	Pkg         string             `json:"pkg,omitempty"`
	Procs       int                `json:"procs,omitempty"` // -P name suffix, if present
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op,omitempty"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	// Runs is the number of repeats folded into this record (1 for a
	// single line): NsPerOp and Metrics are their medians, BytesPerOp
	// and AllocsPerOp their maxima, Iterations their sum.
	Runs int `json:"runs,omitempty"`
}

// BenchSuite is a full `go test -bench` run: the environment header plus
// every benchmark line, in output order.
type BenchSuite struct {
	Date   string `json:"date"` // YYYY-MM-DD, set by the caller
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// GOMAXPROCS is the run's processor count, read from the first
	// benchmark's -N name suffix (go test omits the suffix at 1).
	// allocs/op can depend on it: a worker pool sized at package init
	// allocates per worker.
	GOMAXPROCS int           `json:"gomaxprocs,omitempty"`
	Benchmarks []BenchResult `json:"benchmarks"`
}

// ParseBench reads `go test -bench [-benchmem]` text output and returns
// the structured suite, one record per benchmark: the repeats of a
// `-count N` run are folded (see BenchResult.Runs). Non-benchmark lines
// (test results, PASS/ok, metric chatter) are skipped; a malformed
// Benchmark line is an error so truncated output cannot masquerade as a
// clean (if small) run.
func ParseBench(r io.Reader) (*BenchSuite, error) {
	s := &BenchSuite{}
	pkg := "" // most recent "pkg:" header; ./... runs emit one per package
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			s.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			s.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			s.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			if len(strings.Fields(line)) == 1 {
				// A bare name line: the benchmark wrote to stdout and go
				// test split the report. The measurements follow later.
				continue
			}
			b, err := parseBenchLine(line)
			if err != nil {
				return nil, err
			}
			b.Pkg, b.Runs = pkg, 1
			if s.GOMAXPROCS == 0 {
				s.GOMAXPROCS = max(b.Procs, 1)
			}
			s.Benchmarks = append(s.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	s.Benchmarks = foldRepeats(s.Benchmarks)
	return s, nil
}

// foldRepeats merges the records that share a package, name and
// processor count into one, at the position of the first. A single
// record passes through unchanged.
func foldRepeats(bs []BenchResult) []BenchResult {
	type key struct {
		pkg, name string
		procs     int
	}
	groups := make(map[key][]BenchResult, len(bs))
	var order []key
	for _, b := range bs {
		k := key{b.Pkg, b.Name, b.Procs}
		if groups[k] == nil {
			order = append(order, k)
		}
		groups[k] = append(groups[k], b)
	}
	out := make([]BenchResult, 0, len(order))
	for _, k := range order {
		g := groups[k]
		if len(g) == 1 {
			out = append(out, g[0])
			continue
		}
		f := BenchResult{Name: k.name, Pkg: k.pkg, Procs: k.procs}
		ns := make([]float64, len(g))
		metrics := map[string][]float64{}
		for i, b := range g {
			ns[i] = b.NsPerOp
			f.Runs += max(b.Runs, 1)
			f.Iterations += b.Iterations
			f.BytesPerOp = max(f.BytesPerOp, b.BytesPerOp)
			f.AllocsPerOp = max(f.AllocsPerOp, b.AllocsPerOp)
			for unit, v := range b.Metrics {
				metrics[unit] = append(metrics[unit], v)
			}
		}
		f.NsPerOp = median(ns)
		for unit, vs := range metrics {
			if f.Metrics == nil {
				f.Metrics = map[string]float64{}
			}
			f.Metrics[unit] = median(vs)
		}
		out = append(out, f)
	}
	return out
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), sorting xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 0 {
		return (xs[m-1] + xs[m]) / 2
	}
	return xs[m]
}

func parseBenchLine(line string) (BenchResult, error) {
	fields := strings.Fields(line)
	// Name, iterations, then (value, unit) pairs.
	if len(fields) < 2 || len(fields)%2 != 0 {
		return BenchResult{}, fmt.Errorf("report: malformed benchmark line %q", line)
	}
	b := BenchResult{Name: fields[0]}
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.Procs = b.Name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return BenchResult{}, fmt.Errorf("report: bad iteration count in %q", line)
	}
	b.Iterations = iters
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return BenchResult{}, fmt.Errorf("report: bad value %q in %q", fields[i], line)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = val
		case "B/op":
			b.BytesPerOp = int64(val)
		case "allocs/op":
			b.AllocsPerOp = int64(val)
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = val
		}
	}
	return b, nil
}

// WriteBenchJSON writes the suite as indented JSON (the BENCH_<date>.json
// format archived at the repository root).
func WriteBenchJSON(w io.Writer, s *BenchSuite) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
