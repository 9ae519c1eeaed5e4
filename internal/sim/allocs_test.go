package sim

import "testing"

// TestSchedulerSteadyStateAllocs guards the event engine's central
// property: once the queue's backing array has grown, scheduling and
// running events allocates nothing. A regression here (e.g. reverting to
// container/heap's interface{} boxing) would put one allocation back on
// every simulated event. Kinds 2 and 3 are solo, so the slot path runs
// beside the heap: each solo event re-arms itself 32 times, as a bus's
// transaction ends and resolves do.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	var s Scheduler
	s.Solo(2, 3)
	// Warm the queue to its steady-state capacity.
	for i := 0; i < 64; i++ {
		s.After(float64(i), 0, i)
	}
	drain(&s)

	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			s.After(float64(i), 1, i)
		}
		s.After(0.5, 2, 0)
		s.After(0.25, 3, 0)
		for kind, arg, ok := s.Next(forever); ok; kind, arg, ok = s.Next(forever) {
			if kind >= 2 && arg < 32 {
				s.After(1, kind, arg+1)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("scheduler hot loop allocates %v times per 64-event cycle, want 0", allocs)
	}
}

// TestSchedulerAtSteadyStateAllocs extends the steady-state guard to
// the absolute-time entry point and a bounded Next, the paths the
// Horizon cutoff leans on.
func TestSchedulerAtSteadyStateAllocs(t *testing.T) {
	var s Scheduler
	for i := 0; i < 64; i++ {
		s.At(float64(i), 0, i)
	}
	drain(&s)

	allocs := testing.AllocsPerRun(100, func() {
		base := s.Now()
		for i := 0; i < 64; i++ {
			s.At(base+float64(i+1), 0, i)
		}
		for _, _, ok := s.Next(base + 64); ok; _, _, ok = s.Next(base + 64) {
		}
	})
	if allocs != 0 {
		t.Errorf("At+Next hot loop allocates %v times per 64-event cycle, want 0", allocs)
	}
}

// TestSchedulerResetKeepsCapacity pins that Reset retains the grown
// backing array (a simulator reset per run would otherwise regrow it).
func TestSchedulerResetKeepsCapacity(t *testing.T) {
	var s Scheduler
	for i := 0; i < 64; i++ {
		s.After(float64(i), 0, i)
	}
	s.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			s.After(float64(i), 0, i)
		}
		s.Reset()
	})
	if allocs != 0 {
		t.Errorf("schedule+Reset allocates %v times, want 0", allocs)
	}
}
