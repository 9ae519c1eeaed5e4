package main

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// nearestRank returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q of the samples
// at or below it. It returns 0 for an empty slice.
func nearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// median returns the nearest-rank median of xs, leaving xs as it was.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return nearestRank(s, 0.5)
}

// beyond returns how many of n samples lie strictly above the
// nearest-rank q-quantile: the tail that backs a reported percentile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q*float64(n)))
}

// Histogram geometry: bucket i >= 1 covers [histMin*histGrowth^(i-1),
// histMin*histGrowth^i) nanoseconds; bucket 0 takes everything below
// histMin and the last bucket everything above the range. A quantile is
// interpolated inside its bucket by the rank's position among the
// bucket's samples, so it stays within the bucket that holds the exact
// sample, off by less than a factor histGrowth (1%), and it moves
// continuously with the samples instead of snapping to a bucket.
const (
	histMin     = 100.0 // ns
	histGrowth  = 1.01
	histBuckets = 2100 // reaches 100ns * 1.01^2099, about 118s
)

// latencyHist is a fixed-size log-bucketed latency histogram. Its
// buckets are atomic, so many closed-loop clients record into one
// histogram, and its size never depends on how many samples it holds:
// a faster program records more samples without growing the heap.
type latencyHist struct {
	counts [histBuckets]atomic.Int64
}

// bucketCounts is a plain copy of a histogram's buckets.
type bucketCounts [histBuckets]int64

func histBucket(ns float64) int {
	if ns < histMin {
		return 0
	}
	b := 1 + int(math.Log(ns/histMin)/math.Log(histGrowth))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// bucketAt is the value a fraction f of the way through bucket b, in
// nanoseconds: linear in bucket 0, geometric above it.
func bucketAt(b int, f float64) float64 {
	if b == 0 {
		return f * histMin
	}
	return histMin * math.Pow(histGrowth, float64(b-1)+f)
}

func (h *latencyHist) record(d time.Duration) {
	h.counts[histBucket(float64(d))].Add(1)
}

func (h *latencyHist) load(dst *bucketCounts) {
	for i := range h.counts {
		dst[i] = h.counts[i].Load()
	}
}

func (h *latencyHist) count() int64 {
	var c bucketCounts
	h.load(&c)
	return c.count()
}

func (h *latencyHist) quantileMS(q float64) float64 {
	var c bucketCounts
	h.load(&c)
	return c.quantileMS(q)
}

func (c *bucketCounts) count() int64 {
	var n int64
	for _, k := range c {
		n += k
	}
	return n
}

// quantileMS is the nearest-rank q-quantile in milliseconds, 0 when
// there are no samples.
func (c *bucketCounts) quantileMS(q float64) float64 {
	n := c.count()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, k := range c {
		if seen+k >= rank {
			return bucketAt(b, (float64(rank-seen)-0.5)/float64(k)) / 1e6
		}
		seen += k
	}
	return bucketAt(histBuckets-1, 1) / 1e6
}

// since sets c to the samples recorded between the snapshots prev and
// cur.
func (c *bucketCounts) since(cur, prev *bucketCounts) {
	for i := range c {
		c[i] = cur[i] - prev[i]
	}
}

// fairnessRatio is the worst-served over the best-served count: the
// t_N/t_1-style bandwidth ratio of Table 4.1 taken over every agent
// rather than one pair. It is 0 when any agent got nothing.
func fairnessRatio(counts []int64) float64 {
	if len(counts) == 0 {
		return 0
	}
	lo, hi := counts[0], counts[0]
	for _, c := range counts[1:] {
		lo = min(lo, c)
		hi = max(hi, c)
	}
	if hi == 0 {
		return 0
	}
	return float64(lo) / float64(hi)
}
