package main

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"busarb"
	"busarb/internal/rng"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.01, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := nearestRank(xs, c.q); got != c.want {
			t.Errorf("nearestRank(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := nearestRank(nil, 0.5); got != 0 {
		t.Errorf("nearestRank(empty) = %v, want 0", got)
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", got)
	}
}

// TestHistogramQuantileError checks the histogram's bound: within its
// range, a quantile is off the exact nearest-rank sample by less than a
// factor histGrowth.
func TestHistogramQuantileError(t *testing.T) {
	src := rng.New(7)
	var h latencyHist
	xs := make([]float64, 20000)
	for i := range xs {
		// Log-uniform over 1µs..1s, the range latencies fall in.
		ns := 1e3 * math.Pow(1e6, src.Float64())
		xs[i] = ns
		h.record(time.Duration(ns))
	}
	for i := range xs {
		xs[i] = float64(time.Duration(xs[i])) // the histogram sees whole ns
	}
	sort.Float64s(xs)
	bound := histGrowth - 1
	for _, q := range []float64{0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
		exact := nearestRank(xs, q) / 1e6
		got := h.quantileMS(q)
		if rel := math.Abs(got-exact) / exact; rel > bound {
			t.Errorf("q=%v: histogram %v ms, exact %v ms, relative error %.5f > %.5f", q, got, exact, rel, bound)
		}
	}
	if n := h.count(); n != int64(len(xs)) {
		t.Errorf("count %d, want %d", n, len(xs))
	}
}

func TestBucketCountsSince(t *testing.T) {
	var h latencyHist
	var a, b, d bucketCounts
	h.record(time.Millisecond)
	h.load(&a)
	h.record(10 * time.Millisecond)
	h.record(10 * time.Millisecond)
	h.load(&b)
	d.since(&b, &a)
	if n := d.count(); n != 2 {
		t.Fatalf("slice holds %d samples, want 2", n)
	}
	if got := d.quantileMS(0.5); math.Abs(got-10) > 0.1 {
		t.Errorf("slice median %v ms, want 10", got)
	}
}

func TestFairnessRatio(t *testing.T) {
	for _, c := range []struct {
		counts []int64
		want   float64
	}{
		{[]int64{100}, 1},
		{[]int64{100, 100, 100}, 1},
		{[]int64{90, 100, 95}, 0.9},
		{[]int64{0, 10}, 0},
		{nil, 0},
	} {
		if got := fairnessRatio(c.counts); got != c.want {
			t.Errorf("fairnessRatio(%v) = %v, want %v", c.counts, got, c.want)
		}
	}
}

func TestIdentityGroupRatio(t *testing.T) {
	// Two batches over 16 agents (groups of two): the top pair gets
	// twice the bottom pair's throughput in both batches.
	r := &busarb.Result{AgentBatches: make([][]float64, 16)}
	for a := range r.AgentBatches {
		r.AgentBatches[a] = []float64{1, 1}
	}
	r.AgentBatches[14] = []float64{2, 2}
	r.AgentBatches[15] = []float64{2, 2}
	if e := identityGroupRatio(r); e.Mean != 2 {
		t.Errorf("identity-group ratio %v, want 2", e.Mean)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{start: 0, end: 100}
	for _, c := range []struct {
		children []span
		want     int64
	}{
		{nil, 100},
		{[]span{{start: 10, end: 30}}, 80},
		// Overlapping children count once; a child past the parent's
		// end is clipped.
		{[]span{{start: 10, end: 30}, {start: 20, end: 40}, {start: 90, end: 120}}, 60},
		{[]span{{start: 0, end: 100}, {start: 50, end: 60}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("selfTime with %v = %d, want %d", c.children, got, c.want)
		}
	}
}

func TestRefSeconds(t *testing.T) {
	// At exactly the reference speed a host second is a reference
	// second; on a host twice as fast it is two.
	if got := refSeconds(time.Second, refOpsPerRefSecond, refOpsPerRefSecond); got != 1 {
		t.Errorf("refSeconds at reference speed = %v, want 1", got)
	}
	if got := refSeconds(2*time.Second, 1.5*refOpsPerRefSecond, 2.5*refOpsPerRefSecond); got != 4 {
		t.Errorf("refSeconds(2s at 2x) = %v, want 4", got)
	}
	if r := newRefKernel().slice(); r <= 0 || math.IsInf(r, 0) {
		t.Errorf("reference slice rate %v", r)
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-solo", "--seconds", "0"},
		{"--workload", "serve-solo", "--trace", "2"},
		{"--bogus"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want 2 and none", args, code, out.String())
		}
	}
}

// TestServeSoloResult runs the cheapest workload briefly and checks the
// shape of the last output line.
func TestServeSoloResult(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving stack")
	}
	var out, errs bytes.Buffer
	if code := run([]string{"--workload", "serve-solo", "--seconds", "1"}, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result %+v, want correct with attempts and no failures", res)
	}
	for _, m := range endToEndNames {
		if v, ok := res.Metrics[m]; !ok || v.Value <= 0 {
			t.Errorf("metric %s = %+v, want a positive value", m, v)
		}
	}
	if len(res.Metrics) != len(endToEndNames) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEndNames))
	}
}
