package main

import (
	"math"
	"time"
)

// The reference kernel defines the benchmark's reference second, the
// clock every host-bound number is read on. On a shared VM the same
// single-goroutine simulation runs up to 45% faster or slower from one
// stretch of seconds to the next, and no hardware counters are
// available to count instructions instead. So host time is measured
// against this kernel, run in short slices alternating with the work in
// the same process: a slow stretch slows both, and the ratio holds.
//
// The kernel is the event loop's instruction mix with nothing of the
// repository in it: a 512-entry float min-heap whose minimum is popped
// and re-pushed one exponential draw later, the draw made from a
// xorshift generator through math.Log. It is frozen. Changing it, its
// size, or refOpsPerRefSecond rescales every sim-* timing ever
// recorded.
const (
	refHeapSize = 512
	// refOpsPerRefSecond defines the reference second: the host time in
	// which the kernel completes this many operations.
	refOpsPerRefSecond = 1e7
	// refSliceOps sizes one reference slice, about 2ms on a 2GHz core.
	refSliceOps = 16384
)

type refKernel struct {
	heap [refHeapSize]float64
	x    uint64
	sink float64
}

func newRefKernel() *refKernel {
	k := &refKernel{x: 0x9e3779b97f4a7c15}
	for i := range k.heap {
		k.heap[i] = k.draw()
		k.up(i)
	}
	return k
}

func (k *refKernel) draw() float64 {
	k.x ^= k.x << 13
	k.x ^= k.x >> 7
	k.x ^= k.x << 17
	return -math.Log(1 - float64(k.x>>11)/(1<<53))
}

func (k *refKernel) up(i int) {
	h := &k.heap
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// step replaces the minimum t with t plus a fresh draw and sifts it down.
func (k *refKernel) step() {
	h := &k.heap
	t := h[0]
	k.sink += t
	h[0] = t + k.draw()
	i := 0
	for {
		l := 2*i + 1
		if l >= refHeapSize {
			return
		}
		m := l
		if r := l + 1; r < refHeapSize && h[r] < h[l] {
			m = r
		}
		if h[i] <= h[m] {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// slice runs one reference slice and returns the kernel's rate in
// operations per host second.
func (k *refKernel) slice() float64 {
	start := time.Now()
	for i := 0; i < refSliceOps; i++ {
		k.step()
	}
	return refSliceOps / time.Since(start).Seconds()
}

// refSeconds converts host time spent on work into reference seconds,
// given the kernel's rate measured just before and just after it.
func refSeconds(host time.Duration, rateBefore, rateAfter float64) float64 {
	return host.Seconds() * (rateBefore + rateAfter) / 2 / refOpsPerRefSecond
}
