package verify

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"busarb/internal/bitarb"
	"busarb/internal/core"
	"busarb/internal/experiment"
	"busarb/internal/rng"
	"busarb/internal/topo"
)

const stateCap = 2_000_000

func explore(t *testing.T, p core.Protocol, bound int) Result {
	t.Helper()
	res := Explore(System{Proto: p, MaxBypass: bound}, stateCap)
	if !res.Exhausted {
		t.Fatalf("state cap hit after %d states — raise the cap or shrink N", res.States)
	}
	if res.Violation != nil {
		t.Fatalf("agent %d bypassed %d times (bound %d); path: %s",
			res.Violation.Agent, res.Violation.Bypass, bound, res.Violation.Path)
	}
	return res
}

func factory(t *testing.T, name string) core.Factory {
	t.Helper()
	f, err := core.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// worstBypass returns the worst bypass that the protocol registered as
// name reaches on an n-agent bus where Bound holds: the bound itself,
// except that AAP1 and AAP2 stop one short of 2(N-1), at 2N-3.
func worstBypass(name string, n int) int {
	bound, _ := Bound(name, n)
	if name == "AAP1" || name == "AAP2" {
		return bound - 1
	}
	return bound
}

// proveStates proves name's own bound at n = 2, 3, ..., and pins the
// number of reachable states at each, states[i] at n = i+2, and the
// exact worst bypass.
func proveStates(t *testing.T, name string, states []int) {
	t.Helper()
	f := factory(t, name)
	for i, want := range states {
		n := i + 2
		bound, _ := Bound(name, n)
		res := explore(t, f(n), bound)
		t.Logf("%s n=%d: %d states, worst bypass %d", name, n, res.States, res.MaxBypass)
		if res.States != want {
			t.Errorf("%s n=%d: %d states, want %d", name, n, res.States, want)
		}
		if worst := worstBypass(name, n); res.MaxBypass != worst {
			t.Errorf("%s n=%d: worst bypass %d, want the tight %d", name, n, res.MaxBypass, worst)
		}
	}
}

// The RR protocols: a continuously waiting agent is bypassed at most
// N-1 times — perfect round-robin, proven over the full state space.
func TestRRBoundedBypassExhaustive(t *testing.T) {
	for _, name := range []string{"RR1", "RR2", "RR3"} {
		proveStates(t, name, []int{16, 80, 496, 3632})
	}
}

// FCFS2: also at most N-1 bypasses (strict arrival order), proven.
func TestFCFS2BoundedBypassExhaustive(t *testing.T) {
	proveStates(t, "FCFS2", []int{13, 151, 2537})
}

// FCFS1: a request can be bypassed by same-interval arrivals with
// higher identities, but never more than N-1 times in total.
func TestFCFS1BoundedBypassExhaustive(t *testing.T) {
	proveStates(t, "FCFS1", []int{8, 50, 432})
}

// AAP1: an agent can miss at most one full batch: bound 2(N-1).
func TestAAP1BoundedBypassExhaustive(t *testing.T) {
	proveStates(t, "AAP1", []int{9, 67, 651})
}

// AAP2: a request joins the current batch unless its agent was already
// served in it: bound 2(N-1) as well.
func TestAAP2BoundedBypassExhaustive(t *testing.T) {
	proveStates(t, "AAP2", []int{8, 70, 840})
}

// The healthy rotating-priority scheme has the same proven bound as the
// static RR protocols (faults are what break it; see the robustness
// study in internal/experiment).
func TestRotatingRRBoundedBypassExhaustive(t *testing.T) {
	proveStates(t, "RotRR", []int{12, 72, 480})
}

// The variants built from RR or FCFS plus extra bits — the priority
// line (§2.4, §3.1, §3.2), the §5 hybrid and the ticket scheme —
// prove N-1 over the state counts of their single-class encodings:
// RR1+prio's winner register and classes, FCFS1+prio's and
// FCFS2+prio's counters, Hybrid's winner register over FCFS2's
// counters, and the age of every held ticket.
func TestVariantsBoundedBypassExhaustive(t *testing.T) {
	for _, c := range []struct {
		name   string
		states []int
	}{
		{"RR1+prio", []int{16, 80, 496}},
		{"RR1+prio/rr", []int{16, 80, 496}},
		{"FCFS1+prio/overflow", []int{8, 50, 432}},
		{"FCFS1+prio/matched", []int{8, 50, 432}},
		{"FCFS2+prio", []int{13, 151, 2537}},
		{"Hybrid", []int{23, 250, 4269}},
		{"Ticket", []int{9, 70, 797}},
	} {
		proveStates(t, c.name, c.states)
	}
}

// Fixed priority is genuinely unbounded: the verifier must find a
// violation for any finite bound (here 2N), demonstrating that the
// harness actually detects starvation.
func TestFPStarvationDetected(t *testing.T) {
	res := Explore(System{Proto: core.NewFixedPriority(3), MaxBypass: 6}, stateCap)
	if res.Violation == nil {
		t.Fatal("fixed priority passed a bypass bound — the verifier is broken")
	}
	if res.Violation.Agent != 1 {
		t.Errorf("starved agent = %d, want the lowest identity 1", res.Violation.Agent)
	}
	const path = "r1 r2 r3 g3 r3 g3 r3 g3 r3 g3 r3 g3 r3 g3 g2 "
	if res.Violation.Path != path {
		t.Errorf("counterexample %q, want %q", res.Violation.Path, path)
	}
}

// TestBoundOfEveryName proves or refutes Bound for every protocol arbd
// serves, at N = 2, 3 and 4, and pins each worst case: N-1 for every
// name but three, 2N-3 against the 2(N-1) bound for AAP1 and AAP2, and
// a starved agent 1 against 2N for FP. Every row holds for requests at
// distinct instants, so Hybrid's is FCFS2's result, and the +prio rows
// are single-class results: the explorer issues only non-urgent
// requests.
func TestBoundOfEveryName(t *testing.T) {
	for _, name := range core.Names() {
		f := factory(t, name)
		for n := 2; n <= 4; n++ {
			bound, holds := Bound(name, n)
			if !holds {
				res := Explore(System{Proto: f(n), MaxBypass: bound}, stateCap)
				if res.Violation == nil || res.Violation.Agent != 1 {
					t.Errorf("%s n=%d: %+v, want agent 1 bypassed past %d", name, n, res.Violation, bound)
				}
				continue
			}
			if res, worst := explore(t, f(n), bound), worstBypass(name, n); res.MaxBypass != worst {
				t.Errorf("%s n=%d: worst bypass %d, want %d", name, n, res.MaxBypass, worst)
			}
		}
	}
}

// TestCostTableFairnessIsBound ties the fairness column of the cost
// comparison to Bound: each row names a registered protocol, which
// TestBoundOfEveryName explores, says "unbounded" where Bound holds
// none, and states Bound's formula otherwise.
func TestCostTableFairnessIsBound(t *testing.T) {
	const n = 4
	formula := map[int]string{n - 1: "N-1", 2 * (n - 1): "2(N-1)"}
	for _, row := range experiment.CostTable(n) {
		factory(t, row.Protocol)
		want := "unbounded"
		if bound, holds := Bound(row.Protocol, n); holds {
			want = formula[bound]
		}
		if !strings.HasPrefix(row.FairnessBound, want) {
			t.Errorf("%s: fairness %q, want %q", row.Protocol, row.FairnessBound, want)
		}
	}
}

func leaf(proto string, agents int) topo.Spec { return topo.Spec{Protocol: proto, Agents: agents} }

func over(proto string, children ...topo.Spec) topo.Spec {
	return topo.Spec{Protocol: proto, Children: children}
}

// fanOut returns the largest product of fan-outs on any agent's path
// through s.
func fanOut(s *topo.Spec) int {
	if s.Leaf() {
		return s.Agents
	}
	most := 0
	for i := range s.Children {
		most = max(most, fanOut(&s.Children[i]))
	}
	return len(s.Children) * most
}

// TestTreeBypass explores small arbitration trees and pins their worst
// bypass against the conjectured bound: the product of the fan-outs on
// an agent's path, minus one, which is N-1 only for a balanced tree.
// An RR3 leaf under an RR1 root breaks it: the leaf's empty pass
// re-arbitrates the root, which has already advanced its register
// (TestTreeRepasses), so a waiting agent is bypassed 4 times where the
// conjecture says 3.
func TestTreeBypass(t *testing.T) {
	cases := []struct {
		spec  topo.Spec
		worst int
		path  string // the counterexample, when the conjecture is refuted
	}{
		{spec: over("RR1", leaf("RR1", 2), leaf("RR1", 1)), worst: 3},
		{spec: over("RR1", leaf("RR1", 3), leaf("RR1", 1)), worst: 5},
		{spec: over("RR1", leaf("RR1", 2), leaf("RR1", 2)), worst: 3},
		{spec: over("FCFS2", leaf("RR1", 2), leaf("RR1", 2)), worst: 3},
		{spec: over("FCFS2", leaf("FCFS2", 3), leaf("FCFS2", 1)), worst: 5},
		{spec: over("RR1", over("RR1", leaf("RR1", 2), leaf("RR1", 1)), leaf("RR1", 1)), worst: 7},
		{spec: over("RR1", leaf("RR1", 4), leaf("RR1", 1)), worst: 7},
		{spec: over("RR1", leaf("RR3", 2), leaf("RR1", 2)), worst: 4, path: "r1 r2 r3 r4 g4 r4 g3 g2 g4 "},
	}
	for _, tc := range cases {
		tree, err := topo.NewTree(&tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s N=%d", tree.Name(), tree.N())
		bound := fanOut(&tc.spec) - 1
		res := Explore(System{Proto: tree, MaxBypass: bound}, stateCap)
		t.Logf("%s: bound %d, %d states, worst %d", name, bound, res.States, res.MaxBypass)
		if tc.path == "" {
			if res.Violation != nil || !res.Exhausted || res.MaxBypass != tc.worst {
				t.Errorf("%s: %+v (violation %+v), want proved with worst %d", name, res, res.Violation, tc.worst)
			}
			continue
		}
		if v := res.Violation; v == nil || v.Bypass != tc.worst || v.Path != tc.path {
			t.Errorf("%s: violation %+v, want bypass %d on %q", name, v, tc.worst, tc.path)
		}
		if res := Explore(System{Proto: tree, MaxBypass: tc.worst}, stateCap); res.Violation != nil || res.MaxBypass != tc.worst {
			t.Errorf("%s: %+v at bound %d, want proved with worst %d", name, res, tc.worst, tc.worst)
		}
	}
}

// encodingStep is one action of a random history: a request by agent
// id (urgent when the protocol has classes and the coin says so), or a
// grant when id is 0, at time at.
type encodingStep struct {
	id     int
	urgent bool
	at     float64
}

// encodingDriver runs random histories on one instance and records
// each arbitration's outcomes, repasses included.
type encodingDriver struct {
	p        core.Protocol
	waiting  *bitarb.Vec
	outcomes []core.Outcome
}

func (d *encodingDriver) reset() {
	d.p.Reset()
	d.waiting.Reset()
}

func (d *encodingDriver) apply(s encodingStep) {
	if s.id > 0 {
		d.waiting.Set(s.id)
		if c, ok := d.p.(core.ClassRequester); ok {
			c.OnClassRequest(s.id, s.at, s.urgent)
		} else {
			d.p.OnRequest(s.id, s.at)
		}
		return
	}
	for {
		out := d.p.Arbitrate(d.waiting)
		d.outcomes = append(d.outcomes, out)
		if !out.Repass {
			d.waiting.Clear(out.Winner)
			d.p.OnServiceStart(out.Winner, s.at)
			return
		}
	}
}

// key is the waiting set followed by the protocol's encoding.
func (d *encodingDriver) key() string {
	var b []byte
	for _, w := range d.waiting.Words() {
		b = binary.AppendUvarint(b, w)
	}
	return string(d.p.AppendState(b))
}

// randomStep draws the next action after time now: a request by a
// free agent, more often than a grant, at now or a little later, so
// that requests sometimes share a sensing window.
func randomStep(src *rng.Source, waiting *bitarb.Vec, now float64) encodingStep {
	if src.Intn(3) > 0 {
		now++
	}
	n := waiting.N()
	if !waiting.Any() || (waiting.Count() < n && src.Intn(5) < 3) {
		id := 1 + src.Intn(n)
		for waiting.Test(id) {
			id = 1 + src.Intn(n)
		}
		return encodingStep{id: id, urgent: src.Intn(4) == 0, at: now}
	}
	return encodingStep{at: now}
}

// TestAppendStateDecidesGrants holds every registered protocol, the
// multi-request FCFS at one request per agent, and a two-level tree to
// AppendState's promise: whenever random histories bring two instances
// to equal encodings and equal waiting sets, a common random
// continuation, later than both histories, gets identical outcomes
// from both, repasses included.
func TestAppendStateDecidesGrants(t *testing.T) {
	const n = 4
	type subject struct {
		name string
		mk   func() core.Protocol
	}
	var subjects []subject
	for _, name := range core.Names() {
		f := factory(t, name)
		subjects = append(subjects, subject{name, func() core.Protocol { return f(n) }})
	}
	subjects = append(subjects,
		subject{"FCFSx1", func() core.Protocol { return core.NewMultiFCFS(n, 1) }},
		subject{"FCFS2(RR3:2,Hybrid:3)", func() core.Protocol {
			tree, err := topo.NewTree(&topo.Spec{Protocol: "FCFS2", Children: []topo.Spec{leaf("RR3", 2), leaf("Hybrid", 3)}})
			if err != nil {
				t.Fatal(err)
			}
			return tree
		}})
	for _, sub := range subjects {
		t.Run(sub.name, func(t *testing.T) { checkEncoding(t, sub.mk) })
	}
}

// checkEncoding runs random histories of 1 to 30 steps on one
// instance, remembering the first history to end at each encoding.
// When a different history ends at an encoding already seen, it
// replays that one on a second instance and drives both through a
// common random continuation of 40 steps, comparing every outcome.
func checkEncoding(t *testing.T, mk func() core.Protocol) {
	const trials, pairs = 4000, 200
	a, b := mk(), mk()
	da := &encodingDriver{p: a, waiting: bitarb.NewVec(a.N())}
	db := &encodingDriver{p: b, waiting: bitarb.NewVec(b.N())}
	src := rng.New(1988)
	seen := map[string][]encodingStep{}
	checked := 0
	for trial := 0; trial < trials && checked < pairs; trial++ {
		da.reset()
		history := make([]encodingStep, 1+src.Intn(30))
		now := 0.0
		for i := range history {
			history[i] = randomStep(src, da.waiting, now)
			da.apply(history[i])
			now = history[i].at
		}
		k := da.key()
		prior, ok := seen[k]
		if !ok {
			seen[k] = history
			continue
		}
		if slices.Equal(prior, history) {
			continue
		}
		db.reset()
		for _, s := range prior {
			db.apply(s)
		}
		now = max(now, prior[len(prior)-1].at) + 1
		da.outcomes, db.outcomes = da.outcomes[:0], db.outcomes[:0]
		for step := 0; step < 40; step++ {
			s := randomStep(src, da.waiting, now)
			da.apply(s)
			db.apply(s)
			now = s.at
			if !slices.Equal(da.outcomes, db.outcomes) {
				t.Fatalf("equal encodings after %v and %v, then outcomes %v and %v",
					history, prior, da.outcomes, db.outcomes)
			}
		}
		checked++
	}
	if checked < pairs {
		t.Fatalf("only %d pairs of equal encodings in %d histories", checked, trials)
	}
}

func TestExplorePanicsOnBadSystem(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("incomplete system did not panic")
		}
	}()
	Explore(System{Proto: core.NewRR1(1), MaxBypass: 1}, 10)
}

func BenchmarkExploreRR1(b *testing.B) {
	p := core.NewRR1(5)
	for i := 0; i < b.N; i++ {
		Explore(System{Proto: p, MaxBypass: 4}, stateCap)
	}
}
