package snoop

import (
	"testing"

	"busarb/internal/mp"
)

// TestSteadyStateAllocs pins that a bus transaction allocates nothing:
// two processors writing a shared working set upgrade, miss, write
// back and fill throughout, and doubling the horizon twice (about
// 10k, 20k and 40k grants) must not change the allocation count —
// every allocation belongs to setup, the cache's warm-up and result
// assembly.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime perturbs allocation counts")
	}
	run := func(horizon float64) {
		procs := make([]*Proc, 2)
		for i := range procs {
			procs[i] = &Proc{Pattern: &mp.WorkingSet{Bytes: 512, WriteFrac: 0.3}, CyclePerRef: 1.0}
		}
		Run(Config{Procs: procs, Protocol: rrFactory(), Seed: 3, Horizon: horizon})
	}
	run(1000) // warm any lazy runtime state
	base := testing.AllocsPerRun(3, func() { run(10000) })
	for _, h := range []float64{20000, 40000} {
		if got := testing.AllocsPerRun(3, func() { run(h) }); got != base {
			t.Errorf("horizon %v: %v allocations, %v at horizon 10000; the per-transaction path must not allocate", h, got, base)
		}
	}
}
