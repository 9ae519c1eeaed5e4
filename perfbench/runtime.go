package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// procStats reads the whole-process counters the runtime.* metrics and
// the heap peak are made from, through runtime/metrics (no
// stop-the-world) and getrusage.
type procStats struct {
	samples [3]metrics.Sample
}

func newProcStats() *procStats {
	p := &procStats{}
	p.samples[0].Name = "/gc/heap/allocs:objects"
	p.samples[1].Name = "/gc/cycles/total:gc-cycles"
	p.samples[2].Name = "/memory/classes/heap/objects:bytes"
	return p
}

// procSnapshot is one reading of the process counters.
type procSnapshot struct {
	allocs, gcs, heapBytes uint64
	cpu                    time.Duration
}

func (p *procStats) read() procSnapshot {
	metrics.Read(p.samples[:])
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return procSnapshot{
		allocs:    p.samples[0].Value.Uint64(),
		gcs:       p.samples[1].Value.Uint64(),
		heapBytes: p.samples[2].Value.Uint64(),
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// heapPeak tracks the largest heap in use seen at the sample points:
// after each Simulate call, before its garbage is collected, and every
// few milliseconds while a serving workload runs.
type heapPeak struct {
	p    *procStats
	peak uint64
}

func (h *heapPeak) sample() {
	if b := h.p.read().heapBytes; b > h.peak {
		h.peak = b
	}
}

func (h *heapPeak) mb() float64 { return float64(h.peak) / (1 << 20) }
