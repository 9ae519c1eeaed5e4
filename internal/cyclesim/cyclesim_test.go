package cyclesim

import (
	"testing"

	"busarb/internal/core"
	"busarb/internal/rng"
)

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		FP: "FP", RR1: "RR1", RR2: "RR2", RR3: "RR3",
		FCFS1: "FCFS1", FCFS2: "FCFS2", AAP1: "AAP1", AAP2: "AAP2",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind string = %q", Kind(99).String())
	}
}

func TestIdleArbitrationTiming(t *testing.T) {
	b := New(FP, 4)
	b.Request(3)
	g := b.Step() // arbitration tick (exposed)
	if g != nil {
		t.Fatal("grant during arbitration tick")
	}
	g = b.Step() // transfer starts
	if g == nil || g.Agent != 3 || g.StartTick != 1 {
		t.Fatalf("grant = %+v, want agent 3 at tick 1", g)
	}
	if b.Waiting(3) {
		t.Error("granted agent still waiting")
	}
}

func TestOverlappedArbitrationTiming(t *testing.T) {
	b := New(FP, 4)
	b.Request(1)
	b.Request(2)
	b.Step() // arbitration (idle)
	g := b.Step()
	if g == nil || g.Agent != 2 {
		t.Fatalf("first grant = %+v, want 2", g)
	}
	// Agent 1's arbitration overlaps the transfer: grant exactly 2 ticks
	// after the previous one (no exposed arbitration): the transfer
	// occupies ticks 1-2 and the next starts at tick 3.
	b.Step()
	g = b.Step()
	if g == nil || g.Agent != 1 || g.StartTick != 3 {
		t.Fatalf("second grant = %+v, want agent 1 at tick 3 (back-to-back)", g)
	}
}

func TestRR3EmptyPassCostsOneTick(t *testing.T) {
	b := New(RR3, 4)
	b.Request(3)
	// lastWin starts 0, so the first pass is empty: one extra tick.
	b.Step() // empty pass
	b.Step() // real pass
	g := b.Step()
	if g == nil || g.Agent != 3 || g.StartTick != 2 {
		t.Fatalf("grant = %+v, want agent 3 at tick 2 (one extra tick)", g)
	}
	if b.EmptyPasses != 1 {
		t.Errorf("EmptyPasses = %d, want 1", b.EmptyPasses)
	}
}

func TestSaturatedRoundRobinOrder(t *testing.T) {
	const n = 6
	b := New(RR1, n)
	for id := 1; id <= n; id++ {
		b.Request(id)
	}
	var order []int
	for tick := 0; tick < 200 && len(order) < 3*n; tick++ {
		if g := b.Step(); g != nil {
			order = append(order, g.Agent)
			b.Request(g.Agent) // saturated
		}
	}
	want := []int{6, 5, 4, 3, 2, 1, 6, 5, 4, 3, 2, 1, 6, 5, 4, 3, 2, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFCFS2ServesInArrivalOrder(t *testing.T) {
	b := New(FCFS2, 8)
	b.Request(2)
	b.Step() // idle arbitration for 2
	b.Request(7)
	b.Request(5)
	var order []int
	for tick := 0; tick < 40 && len(order) < 3; tick++ {
		if g := b.Step(); g != nil {
			order = append(order, g.Agent)
		}
	}
	// 2 first (only requester at its arbitration); then 7 before 5?
	// Both 7 and 5 arrived between ticks, 7 first: its counter is
	// higher after 5's a-incr pulse.
	if len(order) != 3 || order[0] != 2 || order[1] != 7 || order[2] != 5 {
		t.Fatalf("order = %v, want [2 7 5]", order)
	}
}

func TestSettleRoundsAccumulate(t *testing.T) {
	b := New(FP, 8)
	b.Request(1)
	b.Request(5)
	b.Step()
	if b.Arbitrations == 0 || b.SettleRounds == 0 {
		t.Errorf("arbs=%d settle=%d, want > 0", b.Arbitrations, b.SettleRounds)
	}
}

func TestRequestTwicePanics(t *testing.T) {
	b := New(FP, 2)
	b.Request(1)
	defer func() {
		if recover() == nil {
			t.Error("double request did not panic")
		}
	}()
	b.Request(1)
}

func TestRunUntilIdle(t *testing.T) {
	b := New(RR1, 4)
	b.Request(1)
	b.Request(4)
	if err := b.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if got := b.GrantOrder(); len(got) != 2 {
		t.Fatalf("grants = %v", got)
	}
	// A bus that is never idle reports the bound.
	b2 := New(FP, 2)
	b2.Request(1)
	b2.Request(2)
	// Keep re-requesting inside the loop is impossible here, so just
	// check the error path with 0 budget.
	if err := b2.RunUntilIdle(0); err == nil {
		t.Error("want error with zero tick budget")
	}
}

// TestLineLevelMatchesAbstract drives the wired-OR hardware model and
// the abstract protocol through identical random request histories and
// requires identical grant sequences.
func TestLineLevelMatchesAbstract(t *testing.T) {
	pairs := []struct {
		kind Kind
		mk   func(n int) core.Protocol
	}{
		{FP, func(n int) core.Protocol { return core.NewFixedPriority(n) }},
		{RR1, func(n int) core.Protocol { return core.NewRR1(n) }},
		{RR2, func(n int) core.Protocol { return core.NewRR2(n) }},
		{RR3, func(n int) core.Protocol { return core.NewRR3(n) }},
		{FCFS1, func(n int) core.Protocol { return core.NewFCFS1(n) }},
		{FCFS2, func(n int) core.Protocol { return core.NewFCFS2(n) }},
		{AAP1, func(n int) core.Protocol { return core.NewAAP1(n) }},
		{AAP2, func(n int) core.Protocol { return core.NewAAP2(n) }},
	}
	src := rng.New(1234)
	for _, pair := range pairs {
		for trial := 0; trial < 25; trial++ {
			n := 2 + src.Intn(12)
			bus := New(pair.kind, n)
			shadow := newCrossShadow(pair.mk(n))
			for tick := 0; tick < 400; tick++ {
				// Random arrivals before this tick.
				for k := 0; k < 1+src.Intn(2); k++ {
					if src.Intn(3) == 0 {
						id := 1 + src.Intn(n)
						if !bus.Waiting(id) && !shadow.waiting.Test(id) {
							bus.Request(id)
							shadow.request(id)
						}
					}
				}
				bus.Step()
				shadow.step()
			}
			got := bus.GrantOrder()
			want := shadow.grants
			if len(got) != len(want) {
				t.Fatalf("%v n=%d trial %d: %d grants vs %d", pair.kind, n, trial, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v n=%d trial %d: grant %d = %d (lines) vs %d (abstract)\nlines:    %v\nabstract: %v",
						pair.kind, n, trial, i, got[i], want[i], got, want)
				}
			}
		}
	}
}

func TestAAP1LineLevelBatching(t *testing.T) {
	b := New(AAP1, 8)
	b.Request(2)
	b.Step() // idle arbitration: 2 wins alone
	// Mid-batch arrivals wait for the boundary.
	b.Request(6)
	b.Request(4)
	var order []int
	for tick := 0; tick < 40 && len(order) < 3; tick++ {
		if g := b.Step(); g != nil {
			order = append(order, g.Agent)
		}
	}
	want := []int{2, 6, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestAAP2LineLevelInhibitAndRelease(t *testing.T) {
	b := New(AAP2, 8)
	b.Request(7)
	b.Request(4)
	var order []int
	step := func(max int) {
		for tick := 0; tick < max; tick++ {
			if g := b.Step(); g != nil {
				order = append(order, g.Agent)
				if g.Agent == 7 && len(order) == 1 {
					// 7 immediately re-requests while inhibited.
					b.Request(7)
				}
			}
		}
	}
	step(40)
	// 7 first, then 4 (7's re-request is inhibited), then the fairness
	// release lets 7 through.
	want := []int{7, 4, 7}
	if len(order) < 3 {
		t.Fatalf("only %d grants: %v", len(order), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRR2LowRequestLine(t *testing.T) {
	b := New(RR2, 8)
	b.Request(4)
	b.Request(6)
	b.RunUntilIdle(20)
	// lastWin = 4 now (6 then 4). A new pair: 2 (below 4, asserts
	// low-request) vs 8.
	b.Request(8)
	b.Request(2)
	if err := b.RunUntilIdle(20); err != nil {
		t.Fatal(err)
	}
	got := b.GrantOrder()
	want := []int{6, 4, 2, 8}
	if len(got) != 4 {
		t.Fatalf("grants = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v (low-request gating)", got, want)
		}
	}
}
