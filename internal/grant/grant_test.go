// Package grant holds the contract tests of the serving grant path: a
// busctl.Controller driven the way the arbd shard's tick drives it. The
// package has no code of its own; the controller replaced it.
package grant

import (
	"fmt"
	"testing"

	"busarb/internal/busctl"
	"busarb/internal/core"
	"busarb/internal/topo"
)

// shardBus drives a busctl.Controller the way the arbd shard does:
// assert raises a line that is down, and resolve settles one
// arbitration at once and grants the winner a tenure that ends at once
// (the lease is released). The clock advances once per raise and once
// per grant.
type shardBus struct {
	ctl   busctl.Controller
	n     int
	up    int // lines raised and not yet granted
	pulse float64
}

// newShardBus returns an idle bus over p's agents.
func newShardBus(p core.Protocol) *shardBus {
	b := &shardBus{n: p.N()}
	b.ctl.Init(p)
	return b
}

// assert raises agent's line and reports whether it was down.
func (b *shardBus) assert(agent int) bool {
	if b.ctl.Line(agent) {
		return false
	}
	b.up++
	b.pulse++
	b.ctl.Request(agent, b.pulse, false)
	return true
}

// resolve grants the next winner, returning it and the empty passes
// charged, or 0, 0 on an idle bus.
func (b *shardBus) resolve() (winner, repasses int) {
	w, r := b.ctl.Settle()
	if w != 0 {
		b.up--
		b.pulse++
		b.ctl.TenureStart(w, b.pulse, false)
		b.ctl.TenureEnd()
	}
	return w, r
}

// pending returns the number of raised lines, one request behind
// each.
func (b *shardBus) pending() int { return b.up }

// raised lists the agents whose line is up.
func (b *shardBus) raised() []int {
	var ids []int
	for id := 1; id <= b.n; id++ {
		if b.ctl.Line(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// newBus builds an idle bus driving the named protocol over n agents.
func newBus(tb testing.TB, protocol string, n int) *shardBus {
	tb.Helper()
	f, err := core.ByName(protocol)
	if err != nil {
		tb.Fatal(err)
	}
	return newShardBus(f(n))
}

// saturate asserts every line of b.
func saturate(b *shardBus) {
	for id := 1; id <= b.n; id++ {
		b.assert(id)
	}
}

// grantSequence resolves len(want) grants on a saturated bus, each
// winner re-asserting at once (a closed loop), checks the order, and
// returns the empty passes charged along the way.
func grantSequence(t *testing.T, b *shardBus, want []int) (repasses int) {
	t.Helper()
	saturate(b)
	for i, w := range want {
		got, r := b.resolve()
		if got != w {
			t.Fatalf("grant %d = agent %d, want %d", i, got, w)
		}
		repasses += r
		b.assert(got)
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
		b.assert(id)
	}
	for i, want := range order {
		if got, _ := b.resolve(); got != want {
			t.Fatalf("grant %d = agent %d, want %d (arrival order)", i, got, want)
		}
	}
	if ids := b.raised(); b.pending() != 0 || ids != nil {
		t.Errorf("lines still asserted after draining: %v", ids)
	}
}

// TestFCFS1SeniorityAccumulates pins the lose-counting rule: a loser's
// counter grows until it dominates fresher requests.
func TestFCFS1SeniorityAccumulates(t *testing.T) {
	b := newBus(t, "FCFS1", 4)
	b.assert(1)
	b.assert(4)
	if w, _ := b.resolve(); w != 4 {
		t.Fatalf("first grant = %d, want 4 (tie on counter 0 broken by identity)", w)
	}
	// Agent 1 lost once (counter 1); a fresh request from 4 (counter 0)
	// must now lose to it.
	b.assert(4)
	if w, _ := b.resolve(); w != 1 {
		t.Fatalf("second grant = %d, want 1 (seniority)", w)
	}
}

// TestResolveEmptyReturnsZero pins the idle-bus contract for every
// protocol, RR3 included: with no line asserted no arbitration starts,
// so a grant goes to nobody and charges no empty pass — before the
// first request and after the last grant alike.
func TestResolveEmptyReturnsZero(t *testing.T) {
	for _, name := range core.Names() {
		b := newBus(t, name, 4)
		if w, r := b.resolve(); w != 0 || r != 0 {
			t.Errorf("%s: resolve on a fresh bus = (%d, %d repasses), want (0, 0)", name, w, r)
		}
		b.assert(3)
		b.resolve()
		if w, r := b.resolve(); w != 0 || r != 0 {
			t.Errorf("%s: resolve after draining = (%d, %d repasses), want (0, 0)", name, w, r)
		}
	}
}

// TestEnqueueSemantics pins assert, the way a request enqueues, for
// every protocol: a line is raised once, a duplicate assert is a
// no-op, the grant drops the line, and an identity outside 1..N
// panics.
func TestEnqueueSemantics(t *testing.T) {
	for _, name := range core.Names() {
		b := newBus(t, name, 4)
		if !b.assert(2) {
			t.Errorf("%s: first assert(2) = false, want true", name)
		}
		if b.assert(2) {
			t.Errorf("%s: duplicate assert(2) = true, want false", name)
		}
		if n, ids := b.pending(), b.raised(); n != 1 || len(ids) != 1 {
			t.Errorf("%s: Pending = %d with lines %v asserted, want 1", name, n, ids)
		}
		if w, _ := b.resolve(); w != 2 {
			t.Errorf("%s: resolve = %d, want 2", name, w)
		}
		if b.pending() != 0 || b.raised() != nil {
			t.Errorf("%s: line still asserted after its grant", name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: assert(5) on n=4 did not panic", name)
				}
			}()
			b.assert(5)
		}()
	}
}

// TestSteadyStateAllocs guards the serving hot path: once a protocol's
// scratch has grown, a saturated assert/resolve cycle allocates
// nothing, for every registered protocol, flat or tree. The arbd shard
// loop leans on this — a per-grant allocation would be paid millions
// of times a day.
func TestSteadyStateAllocs(t *testing.T) {
	check := func(label string, b *shardBus) {
		cycle := func() {
			saturate(b)
			for b.pending() > 0 {
				b.resolve()
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
	check(tree.Name(), newShardBus(tree))
}
