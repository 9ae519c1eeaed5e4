// Benchmark regression gating: diff two BENCH_<date>.json snapshots
// and name the benchmarks that got worse. An allocs/op increase is
// always a regression (the repository's hot loops pin zero steady-state
// allocations, so any growth is a real structural change); ns/op is
// gated by a configurable relative threshold because wall-time moves
// with the hardware the suite ran on.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ReadBenchJSON parses a BENCH_<date>.json snapshot (the format
// WriteBenchJSON emits), folding any repeated records as ParseBench
// does.
func ReadBenchJSON(r io.Reader) (*BenchSuite, error) {
	var s BenchSuite
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("report: parsing bench snapshot: %w", err)
	}
	s.Benchmarks = foldRepeats(s.Benchmarks)
	return &s, nil
}

// BenchRegression is one benchmark that got worse between snapshots.
type BenchRegression struct {
	Name   string  // fully qualified: pkg.BenchmarkName
	Metric string  // "allocs/op" or "ns/op"
	Old    float64 // value in the old snapshot
	New    float64 // value in the new snapshot
}

func (r BenchRegression) String() string {
	return fmt.Sprintf("%s: %s %v -> %v", r.Name, r.Metric, r.Old, r.New)
}

// benchKey identifies a benchmark across snapshots.
func benchKey(b BenchResult) string {
	if b.Pkg != "" {
		return b.Pkg + "." + b.Name
	}
	return b.Name
}

// allocSlack is the relative allocs/op growth tolerated before it
// counts as a regression. Macro benchmarks (whole simulation runs with
// thousands of allocs/op) drift by a count or two with the iteration
// count, because one-time setup amortizes differently; 1% absorbs that
// while keeping the zero-alloc pins exact — any allocation on a
// zero-alloc path still fails.
const allocSlack = 0.01

// CompareBench diffs two snapshots. An allocs/op increase beyond
// allocSlack is always a regression. nsThreshold gates ns/op as a
// relative increase (0.25 fails on >25% slower); a negative threshold
// disables the ns/op check entirely (the cross-hardware CI setting).
// Benchmarks present only in old are returned in missing — renames and
// removals are for a human to judge, not an automatic failure.
// Benchmarks only in new are new coverage and ignored.
func CompareBench(old, new *BenchSuite, nsThreshold float64) (regressions []BenchRegression, missing []string) {
	byKey := make(map[string]BenchResult, len(new.Benchmarks))
	for _, b := range new.Benchmarks {
		byKey[benchKey(b)] = b
	}
	for _, ob := range old.Benchmarks {
		key := benchKey(ob)
		nb, ok := byKey[key]
		if !ok {
			missing = append(missing, key)
			continue
		}
		if float64(nb.AllocsPerOp) > float64(ob.AllocsPerOp)*(1+allocSlack) {
			regressions = append(regressions, BenchRegression{
				Name: key, Metric: "allocs/op",
				Old: float64(ob.AllocsPerOp), New: float64(nb.AllocsPerOp),
			})
		}
		if nsThreshold >= 0 && ob.NsPerOp > 0 && nb.NsPerOp > ob.NsPerOp*(1+nsThreshold) {
			regressions = append(regressions, BenchRegression{
				Name: key, Metric: "ns/op",
				Old: ob.NsPerOp, New: nb.NsPerOp,
			})
		}
	}
	sort.Slice(regressions, func(i, j int) bool {
		if regressions[i].Name != regressions[j].Name {
			return regressions[i].Name < regressions[j].Name
		}
		return regressions[i].Metric < regressions[j].Metric
	})
	sort.Strings(missing)
	return regressions, missing
}
