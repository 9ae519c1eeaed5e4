package cyclesim

import (
	"testing"

	"busarb/internal/core"
	"busarb/internal/rng"
)

func TestNewPriorityRejectsUnsupportedKinds(t *testing.T) {
	for _, kind := range []Kind{RR2, RR3, AAP1, AAP2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPriority(%v) did not panic", kind)
				}
			}()
			NewPriority(kind, 4)
		}()
	}
}

func TestRequestUrgentNeedsPriorityBus(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RequestUrgent on plain bus did not panic")
		}
	}()
	New(RR1, 4).Request(1)
	New(RR1, 4).RequestUrgent(2)
}

func TestUrgentWinsAtLineLevel(t *testing.T) {
	b := NewPriority(RR1, 8)
	b.Request(7)       // normal, high identity
	b.RequestUrgent(2) // urgent, low identity
	if err := b.RunUntilIdle(40); err != nil {
		t.Fatal(err)
	}
	got := b.GrantOrder()
	if len(got) != 2 || got[0] != 2 || got[1] != 7 {
		t.Fatalf("order = %v, want [2 7] (urgent first)", got)
	}
}

func TestFCFS2PriorityDualLines(t *testing.T) {
	b := NewPriority(FCFS2, 8)
	b.Request(3) // normal waits
	b.Step()     // its idle arbitration resolves; transfer next tick
	// A later urgent arrival must not bump 3's counter (wrong-class
	// pulse), and is served before any further normal requests anyway.
	b.RequestUrgent(6)
	b.Request(2)
	if err := b.RunUntilIdle(60); err != nil {
		t.Fatal(err)
	}
	got := b.GrantOrder()
	want := []int{3, 6, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// The line-level priority machines must grant in exactly the order of
// the abstract priority protocols (the tick-shadow equivalence, now for
// mixed-class traffic).
func TestLineLevelPriorityMatchesAbstract(t *testing.T) {
	pairs := []struct {
		kind Kind
		mk   func(n int) core.ClassRequester
	}{
		{RR1, func(n int) core.ClassRequester { return core.NewPriorityRR(n, core.RRIgnoreWithinClass) }},
		{FCFS1, func(n int) core.ClassRequester { return core.NewPriorityFCFS1(n, core.CounterOverflow) }},
		{FCFS2, func(n int) core.ClassRequester { return core.NewPriorityFCFS2(n) }},
	}
	src := rng.New(4321)
	for _, pair := range pairs {
		for trial := 0; trial < 20; trial++ {
			n := 2 + src.Intn(10)
			bus := NewPriority(pair.kind, n)
			proto := pair.mk(n)
			shadow := newCrossShadow(proto)
			for tick := 0; tick < 300; tick++ {
				if src.Intn(3) == 0 {
					id := 1 + src.Intn(n)
					if !bus.Waiting(id) && !shadow.waiting.Test(id) {
						urgent := src.Intn(3) == 0
						if urgent {
							bus.RequestUrgent(id)
						} else {
							bus.Request(id)
						}
						shadow.waiting.Set(id)
						shadow.reqSeq += 0.001
						proto.OnClassRequest(id, float64(shadow.tick)+shadow.reqSeq, urgent)
					}
				}
				bus.Step()
				shadow.step()
			}
			got := bus.GrantOrder()
			want := shadow.grants
			if len(got) != len(want) {
				t.Fatalf("%v+prio n=%d trial %d: %d grants vs %d", pair.kind, n, trial, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v+prio n=%d trial %d: grant %d = %d (lines) vs %d (abstract)\nlines:    %v\nabstract: %v",
						pair.kind, n, trial, i, got[i], want[i], got, want)
				}
			}
		}
	}
}
