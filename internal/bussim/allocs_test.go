package bussim

import (
	"testing"

	"busarb/internal/core"
)

// TestNilObserverSteadyStateAllocs pins the zero-cost contract's
// performance half: with a nil Observer, the per-event simulation path
// allocates nothing. Doubling the batch count doubles the number of
// simulated events but must not change the allocation count — every
// allocation belongs to setup and result assembly, which are identical
// between the two runs.
func TestNilObserverSteadyStateAllocs(t *testing.T) {
	f, err := core.ByName("RR1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := func(batches int) Config {
		return Config{
			N:        4,
			Protocol: f,
			Inter:    UniformLoad(4, 2.0, 1.0, 1.0),
			Seed:     5,
			Batches:  batches, BatchSize: 200,
		}
	}
	// Warm any lazy runtime state before measuring.
	Run(cfg(1))
	base := testing.AllocsPerRun(3, func() { Run(cfg(2)) })
	doubled := testing.AllocsPerRun(3, func() { Run(cfg(4)) })
	if doubled != base {
		t.Errorf("allocs grew with event count: %v for 2 batches vs %v for 4; "+
			"the nil-Observer per-event path must be allocation-free", base, doubled)
	}
}

// TestRunAllocsFlatInN pins that Run sizes its set-up once: the event
// heap is grown to the N think times before they are scheduled, and the
// agents and their request-time rings each come from one slab, so a
// run's allocation count is the same at every N.
func TestRunAllocsFlatInN(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds a few mallocs per run; the exact pin runs in the non-race suite")
	}
	for _, name := range []string{"RR1", "FCFS2"} {
		f, err := core.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ns := []int{4, 64, 1024}
		allocs := make([]float64, len(ns))
		for i, n := range ns {
			cfg := Config{
				N:        n,
				Protocol: f,
				Inter:    UniformLoad(n, 1.5, 1.0, 1.0),
				Seed:     5,
				Batches:  2, BatchSize: 200,
			}
			allocs[i] = testing.AllocsPerRun(3, func() { Run(cfg) })
		}
		for i := range ns {
			if allocs[i] != allocs[0] {
				t.Errorf("%s: Run allocates %v times at n=%v; want one count at every n",
					name, allocs, ns)
				break
			}
		}
	}
}
