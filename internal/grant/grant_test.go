package grant

import (
	"fmt"
	"testing"

	"busarb/internal/core"
	"busarb/internal/topo"
)

// newBus builds an idle bus driving the named protocol over n agents.
func newBus(tb testing.TB, protocol string, n int) *Bus {
	tb.Helper()
	f, err := core.ByName(protocol)
	if err != nil {
		tb.Fatal(err)
	}
	return New(f(n))
}

// saturate asserts every line of b.
func saturate(b *Bus) {
	for id := 1; id <= b.proto.N(); id++ {
		b.Assert(id)
	}
}

// grantSequence resolves len(want) grants on a saturated bus, each
// winner re-asserting at once (a closed loop), checks the order, and
// returns the empty passes charged along the way.
func grantSequence(t *testing.T, b *Bus, want []int) (repasses int) {
	t.Helper()
	saturate(b)
	for i, w := range want {
		got, r := b.Resolve()
		if got != w {
			t.Fatalf("grant %d = agent %d, want %d", i, got, w)
		}
		repasses += r
		b.Assert(got)
	}
	return repasses
}

// TestRR1RotationAtSaturation pins the round-robin scan: with every
// agent waiting and each winner re-requesting after its grant, RR1
// cycles N, N-1, ..., 1, N, ... — the §3.1 scan order.
func TestRR1RotationAtSaturation(t *testing.T) {
	grantSequence(t, newBus(t, "RR1", 5), []int{5, 4, 3, 2, 1, 5, 4, 3, 2, 1})
}

// TestRR3MatchesRR1WithRepasses pins that RR3 grants RR1's sequence at
// saturation while charging empty passes: one at reset (winner
// register 0) and one per wrap of the scan after agent 1 wins.
func TestRR3MatchesRR1WithRepasses(t *testing.T) {
	got := grantSequence(t, newBus(t, "RR3", 4), []int{4, 3, 2, 1, 4, 3, 2, 1})
	// The second wrap would be charged by the ninth resolution, which
	// never runs.
	if got != 2 {
		t.Errorf("repasses = %d, want 2 (reset + one wrap)", got)
	}
}

// TestFPStarvesLowIdentities pins the baseline's unfairness: with all
// agents saturated, FP grants only the highest identity.
func TestFPStarvesLowIdentities(t *testing.T) {
	want := make([]int, 20)
	for i := range want {
		want[i] = 6
	}
	grantSequence(t, newBus(t, "FP", 6), want)
}

// TestFCFS2ArrivalOrder pins exact arrival-order service, including an
// arrival order adversarial to static priority.
func TestFCFS2ArrivalOrder(t *testing.T) {
	b := newBus(t, "FCFS2", 8)
	order := []int{3, 6, 1, 5, 8, 2}
	for _, id := range order {
		b.Assert(id)
	}
	for i, want := range order {
		if got, _ := b.Resolve(); got != want {
			t.Fatalf("grant %d = agent %d, want %d (arrival order)", i, got, want)
		}
	}
	if b.Pending() != 0 || b.lines.Any() {
		t.Errorf("lines still asserted after draining: %v", b.lines.AppendIDs(nil))
	}
}

// TestFCFS1SeniorityAccumulates pins the lose-counting rule: a loser's
// counter grows until it dominates fresher requests.
func TestFCFS1SeniorityAccumulates(t *testing.T) {
	b := newBus(t, "FCFS1", 4)
	b.Assert(1)
	b.Assert(4)
	if w, _ := b.Resolve(); w != 4 {
		t.Fatalf("first grant = %d, want 4 (tie on counter 0 broken by identity)", w)
	}
	// Agent 1 lost once (counter 1); a fresh request from 4 (counter 0)
	// must now lose to it.
	b.Assert(4)
	if w, _ := b.Resolve(); w != 1 {
		t.Fatalf("second grant = %d, want 1 (seniority)", w)
	}
}

// TestResolveEmptyReturnsZero pins the idle-bus contract for every
// protocol, RR3 included: with no line asserted no arbitration starts,
// so Resolve grants nobody and charges no empty pass — before the
// first request and after the last grant alike.
func TestResolveEmptyReturnsZero(t *testing.T) {
	for _, name := range core.Names() {
		b := newBus(t, name, 4)
		if w, r := b.Resolve(); w != 0 || r != 0 {
			t.Errorf("%s: Resolve on a fresh bus = (%d, %d repasses), want (0, 0)", name, w, r)
		}
		b.Assert(3)
		b.Resolve()
		if w, r := b.Resolve(); w != 0 || r != 0 {
			t.Errorf("%s: Resolve after draining = (%d, %d repasses), want (0, 0)", name, w, r)
		}
	}
}

// TestEnqueueSemantics pins Assert, the way a request enqueues, for
// every protocol: a line is raised once, a duplicate assert is a
// no-op, the grant drops the line, and an identity outside 1..N
// panics.
func TestEnqueueSemantics(t *testing.T) {
	for _, name := range core.Names() {
		b := newBus(t, name, 4)
		if !b.Assert(2) {
			t.Errorf("%s: first Assert(2) = false, want true", name)
		}
		if b.Assert(2) {
			t.Errorf("%s: duplicate Assert(2) = true, want false", name)
		}
		if n := b.Pending(); n != 1 || b.lines.Count() != 1 {
			t.Errorf("%s: Pending = %d with %d lines asserted, want 1", name, n, b.lines.Count())
		}
		if w, _ := b.Resolve(); w != 2 {
			t.Errorf("%s: Resolve = %d, want 2", name, w)
		}
		if b.Pending() != 0 || b.lines.Any() {
			t.Errorf("%s: line still asserted after its grant", name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Assert(5) on n=4 did not panic", name)
				}
			}()
			b.Assert(5)
		}()
	}
}

// TestSteadyStateAllocs guards the serving hot path: once a protocol's
// scratch has grown, a saturated assert/resolve cycle allocates
// nothing, for every registered protocol, flat or tree. The arbd shard
// loop leans on this — a per-grant allocation would be paid millions
// of times a day.
func TestSteadyStateAllocs(t *testing.T) {
	check := func(label string, b *Bus) {
		cycle := func() {
			saturate(b)
			for b.Pending() > 0 {
				b.Resolve()
			}
		}
		cycle() // warm up
		if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
			t.Errorf("%s: steady-state assert/resolve cycle allocates %v times, want 0", label, allocs)
		}
	}
	for _, n := range []int{8, 1024} { // small and kernel-scale
		for _, name := range core.Names() {
			check(fmt.Sprintf("%s/n=%d", name, n), newBus(t, name, n))
		}
	}
	tree, err := topo.NewTree(&topo.Spec{Protocol: "RR1", Children: []topo.Spec{
		{Protocol: "RR3", Agents: 512}, {Protocol: "FCFS2", Agents: 512}}})
	if err != nil {
		t.Fatal(err)
	}
	check(tree.Name(), New(tree))
}
