// Package stats implements the output-analysis machinery the paper uses
// in §4.1: the method of batch means with Student-t confidence intervals
// (10 batches of 8000 samples, 90% confidence), plus running moment
// accumulators and empirical CDFs for Figure 4.1.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Running accumulates count, mean, and variance of a stream using
// Welford's numerically stable online algorithm. The zero value is ready
// to use.
type Running struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// N returns the number of observations.
func (r *Running) N() int64 { return r.n }

// Mean returns the sample mean (0 if empty).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased sample variance (0 if n < 2).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min returns the smallest observation (0 if empty).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation (0 if empty).
func (r *Running) Max() float64 { return r.max }

// Reset clears the accumulator.
func (r *Running) Reset() { *r = Running{} }

// Merge combines another accumulator into r (parallel Welford merge).
func (r *Running) Merge(o *Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = *o
		return
	}
	n1, n2 := float64(r.n), float64(o.n)
	delta := o.mean - r.mean
	total := n1 + n2
	r.m2 += o.m2 + delta*delta*n1*n2/total
	r.mean += delta * n2 / total
	r.n += o.n
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
}

// tCritical90 holds two-sided 90% critical values of the Student t
// distribution (i.e. the 0.95 quantile) for 1..30 degrees of freedom.
// The paper's 10-batch runs use df = 9 (1.833).
var tCritical90 = []float64{
	math.NaN(), // df = 0 unused
	6.314, 2.920, 2.353, 2.132, 2.015,
	1.943, 1.895, 1.860, 1.833, 1.812,
	1.796, 1.782, 1.771, 1.761, 1.753,
	1.746, 1.740, 1.734, 1.729, 1.725,
	1.721, 1.717, 1.714, 1.711, 1.708,
	1.706, 1.703, 1.701, 1.699, 1.697,
}

// TCritical90 returns the two-sided 90% Student-t critical value for the
// given degrees of freedom. Beyond the table it returns the normal
// approximation 1.645.
func TCritical90(df int) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if df < len(tCritical90) {
		return tCritical90[df]
	}
	return 1.645
}

// Estimate is a point estimate with a symmetric confidence half-width,
// as reported throughout the paper's tables ("1.04 ± 0.05").
type Estimate struct {
	Mean     float64
	HalfW    float64 // half-width of the 90% confidence interval
	NBatches int
}

// String formats the estimate in the paper's "m ± h" style.
func (e Estimate) String() string { return fmt.Sprintf("%.2f ± %.2f", e.Mean, e.HalfW) }

// Contains reports whether v lies within the confidence interval.
func (e Estimate) Contains(v float64) bool {
	return v >= e.Mean-e.HalfW && v <= e.Mean+e.HalfW
}

// BatchMeans computes a batch-means estimate with a 90% confidence
// interval from per-batch means. This is the paper's §4.1 method: run the
// simulation in B batches, treat the batch means as (approximately)
// independent observations, and apply the Student t interval with B-1
// degrees of freedom.
func BatchMeans(batches []float64) Estimate {
	b := len(batches)
	if b == 0 {
		return Estimate{Mean: math.NaN(), HalfW: math.NaN()}
	}
	var acc Running
	for _, v := range batches {
		acc.Add(v)
	}
	if b == 1 {
		return Estimate{Mean: acc.Mean(), HalfW: math.NaN(), NBatches: 1}
	}
	se := acc.StdDev() / math.Sqrt(float64(b))
	return Estimate{
		Mean:     acc.Mean(),
		HalfW:    TCritical90(b-1) * se,
		NBatches: b,
	}
}

// Lag1Autocorrelation estimates the lag-1 autocorrelation of a series
// of batch means. The method of batch means assumes approximately
// independent batches; a large positive value (rule of thumb: > 0.3)
// warns that batches are too short and the confidence intervals
// understate the error [Lave83]. Returns 0 for fewer than 3 batches.
func Lag1Autocorrelation(batches []float64) float64 {
	n := len(batches)
	if n < 3 {
		return 0
	}
	var acc Running
	for _, v := range batches {
		acc.Add(v)
	}
	mean := acc.Mean()
	var num, den float64
	for i := 0; i < n; i++ {
		d := batches[i] - mean
		den += d * d
		if i+1 < n {
			num += d * (batches[i+1] - mean)
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// RatioOfBatches computes a confidence interval on the ratio of two
// quantities measured batch-by-batch (e.g. throughput of agent N over
// throughput of agent 1): the per-batch ratios are the observations.
// Panics if the slices differ in length.
func RatioOfBatches(num, den []float64) Estimate {
	if len(num) != len(den) {
		panic("stats: batch count mismatch")
	}
	ratios := make([]float64, len(num))
	for i := range num {
		ratios[i] = num[i] / den[i]
	}
	return BatchMeans(ratios)
}

// ECDF is an exact empirical CDF over stored samples: Figure 4.1's
// waiting-time distributions and the Table 4.3 overlap search read
// their quantiles from it.
type ECDF struct {
	sorted bool
	xs     []float64
}

// Add records one observation.
func (e *ECDF) Add(x float64) {
	e.xs = append(e.xs, x)
	e.sorted = false
}

// Reserve pre-grows the sample store to hold n observations, so a
// collector that knows its sample count up front (the simulator does:
// batches x batch size) avoids the append regrowth copies.
func (e *ECDF) Reserve(n int) {
	if n > cap(e.xs) {
		xs := make([]float64, len(e.xs), n)
		copy(xs, e.xs)
		e.xs = xs
	}
}

// N returns the number of observations.
func (e *ECDF) N() int { return len(e.xs) }

func (e *ECDF) ensureSorted() {
	if !e.sorted {
		sort.Float64s(e.xs)
		e.sorted = true
	}
}

// P returns the empirical P(X <= x).
func (e *ECDF) P(x float64) float64 {
	if len(e.xs) == 0 {
		return 0
	}
	e.ensureSorted()
	// Index of the first element > x.
	i := sort.SearchFloat64s(e.xs, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.xs))
}

// Mean returns the sample mean.
func (e *ECDF) Mean() float64 {
	if len(e.xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range e.xs {
		s += v
	}
	return s / float64(len(e.xs))
}

// MeanMin returns E[min(c, X)], the expected overlapped execution in the
// paper's Table 4.3 model for a fixed overlap value c.
func (e *ECDF) MeanMin(c float64) float64 {
	if len(e.xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range e.xs {
		s += math.Min(c, v)
	}
	return s / float64(len(e.xs))
}
