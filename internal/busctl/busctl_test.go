package busctl

import (
	"testing"

	"busarb/internal/core"
)

// step is one input to a controller and the answer it must give.
type step struct {
	in   string // "r<id>", "r<id>+" (an urgent request), "resolve", "start<id>", "keep<id>" (start keeping the line), "end"
	act  Action
	w    int   // the winner the answer names, or 0
	snap []int // for Arbitrate: the competitors
}

// run feeds steps to a fresh controller over name's protocol, one time
// unit apart, and checks each answer.
func run(t *testing.T, name string, n int, setup func(*Controller), steps []step) *Controller {
	t.Helper()
	f, err := core.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	var c Controller
	if setup != nil {
		setup(&c)
	}
	c.Init(f(n))
	for i, s := range steps {
		now := float64(i)
		var act Action
		var w, id int
		switch {
		case s.in == "resolve":
			act, w = c.Resolve()
		case s.in == "end":
			act, w = c.TenureEnd()
		case s.in[0] == 'r':
			urgent := s.in[len(s.in)-1] == '+'
			id = int(s.in[1] - '0')
			act = c.Request(id, now, urgent)
		case s.in[0] == 's':
			act = c.TenureStart(int(s.in[5]-'0'), now, false)
		case s.in[0] == 'k':
			act = c.TenureStart(int(s.in[4]-'0'), now, true)
		}
		if act != s.act || w != s.w {
			t.Fatalf("%s step %d (%s): got (%d, %d), want (%d, %d)", name, i, s.in, act, w, s.act, s.w)
		}
		if act == Arbitrate {
			if got := c.Snapshot().AppendIDs(nil); !equal(got, s.snap) {
				t.Fatalf("%s step %d (%s): snapshot %v, want %v", name, i, s.in, got, s.snap)
			}
		}
	}
	return &c
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOverlapRule walks the §4.1 rule on RR1: a request on an idle bus
// starts an exposed arbitration, a tenure's start overlaps the next
// one over the lines then up, its winner is latched until the tenure
// ends, and a request during an arbitration waits for the next.
func TestOverlapRule(t *testing.T) {
	c := run(t, "RR1", 3, nil, []step{
		{in: "r1", act: Arbitrate, snap: []int{1}},
		{in: "r2", act: Wait},
		{in: "resolve", act: Grant, w: 1},
		{in: "start1", act: Arbitrate, snap: []int{2}},
		{in: "r3", act: Wait},
		{in: "resolve", act: Wait, w: 2},
		{in: "r1", act: Wait},
		{in: "end", act: Grant, w: 2},
		{in: "start2", act: Arbitrate, snap: []int{1, 3}},
		{in: "resolve", act: Wait, w: 1},
		{in: "end", act: Grant, w: 1},
		{in: "start1", act: Arbitrate, snap: []int{3}},
		{in: "resolve", act: Wait, w: 3},
		{in: "end", act: Grant, w: 3},
		{in: "start3", act: Wait},
		{in: "end", act: Wait},
		{in: "r2", act: Arbitrate, snap: []int{2}},
	})
	if c.Arbitrations != 4 || c.Exposed != 2 || c.Repasses != 0 {
		t.Errorf("counters: %d arbitrations, %d exposed, %d repasses; want 4, 2, 0",
			c.Arbitrations, c.Exposed, c.Repasses)
	}
}

// TestSwitches pins LateJoin, which lets a request raised during the
// arbitration delay compete, and BoundaryArbOnly, which holds a
// mid-tenure request for an exposed arbitration at the tenure's end.
func TestSwitches(t *testing.T) {
	run(t, "FP", 3, func(c *Controller) { c.LateJoin = true }, []step{
		{in: "r1", act: Arbitrate, snap: []int{1}},
		{in: "r3", act: Wait},
		{in: "resolve", act: Grant, w: 3},
	})
	c := run(t, "FP", 3, func(c *Controller) { c.BoundaryArbOnly = true }, []step{
		{in: "r1", act: Arbitrate, snap: []int{1}},
		{in: "resolve", act: Grant, w: 1},
		{in: "start1", act: Wait},
		{in: "r2", act: Wait},
		{in: "end", act: Arbitrate, snap: []int{2}},
	})
	if c.Exposed != 2 {
		t.Errorf("BoundaryArbOnly: %d exposed arbitrations, want 2", c.Exposed)
	}
}

// TestUrgentRequest pins that a request's class reaches a
// core.ClassRequester: plain RR1 would grant 3 after 1, but RR1+prio
// grants the urgent 2 first.
func TestUrgentRequest(t *testing.T) {
	run(t, "RR1+prio", 3, nil, []step{
		{in: "r1", act: Arbitrate, snap: []int{1}},
		{in: "r3", act: Wait},
		{in: "r2+", act: Wait},
		{in: "resolve", act: Grant, w: 1},
		{in: "start1", act: Arbitrate, snap: []int{2, 3}},
		{in: "resolve", act: Wait, w: 2},
	})
}

// TestKeepLine pins the snoop chain: an agent that starts a tenure
// with more to send keeps its line, so it competes with no request
// pending, and its next request rides the raised line.
func TestKeepLine(t *testing.T) {
	c := run(t, "FP", 3, nil, []step{
		{in: "r2", act: Arbitrate, snap: []int{2}},
		{in: "resolve", act: Grant, w: 2},
		{in: "keep2", act: Wait},
		{in: "r1", act: Arbitrate, snap: []int{1, 2}},
		{in: "resolve", act: Wait, w: 2},
		{in: "r2", act: Wait},
		{in: "end", act: Grant, w: 2},
		{in: "start2", act: Arbitrate, snap: []int{1}},
	})
	if c.Line(2) || !c.Line(1) {
		t.Errorf("lines after the chain: 1 %v, 2 %v; want up, down", c.Line(1), c.Line(2))
	}
}

// TestRepass pins RR3's empty passes (its winner register starts at 0,
// and an agent below the last winner may not be waiting) on the timed
// path, a fresh pass over the lines as they stand, and on the untimed
// one, where Settle re-runs them at once and counts them.
func TestRepass(t *testing.T) {
	c := run(t, "RR3", 3, nil, []step{
		{in: "r1", act: Arbitrate, snap: []int{1}},
		{in: "resolve", act: Repass},
		{in: "resolve", act: Grant, w: 1},
		{in: "start1", act: Wait},
		{in: "end", act: Wait},
		{in: "r2", act: Arbitrate, snap: []int{2}},
		{in: "resolve", act: Repass},
		{in: "resolve", act: Grant, w: 2},
	})
	if c.Repasses != 2 || c.Arbitrations != 2 {
		t.Errorf("timed: %d repasses, %d arbitrations; want 2, 2", c.Repasses, c.Arbitrations)
	}
	c = run(t, "RR3", 3, nil, []step{{in: "r1", act: Arbitrate, snap: []int{1}}})
	if w, r := c.Settle(); w != 1 || r != 1 {
		t.Fatalf("Settle = (%d, %d), want (1, 1)", w, r)
	}
	c.TenureStart(1, 1, false)
	c.TenureEnd()
	c.Request(3, 2, false)
	if w, r := c.Settle(); w != 3 || r != 1 || c.Repasses != 2 {
		t.Errorf("Settle = (%d, %d) with %d repasses counted, want (3, 1) and 2", w, r, c.Repasses)
	}
	c.TenureStart(3, 3, false)
	c.TenureEnd()
	if w, r := c.Settle(); w != 0 || r != 0 {
		t.Errorf("Settle on an idle bus = (%d, %d), want (0, 0)", w, r)
	}
}
