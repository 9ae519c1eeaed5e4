package contention

import (
	"fmt"
	"testing"

	"busarb/internal/bitarb"
	"busarb/internal/rng"
)

// randomComps builds a set of distinct nonzero numbers within width
// bits, one competitor each.
func randomComps(src *rng.Source, width, maxN int) []Competitor {
	mask := ^uint64(0) >> uint(64-width)
	n := 1 + src.Intn(maxN)
	seen := map[uint64]bool{}
	comps := make([]Competitor, 0, n)
	for len(comps) < n {
		id := src.Uint64() & mask
		if id == 0 || seen[id] {
			if len(seen) >= 1<<uint(minI(width, 20))-1 {
				break // width too narrow for more distinct numbers
			}
			continue
		}
		seen[id] = true
		comps = append(comps, Competitor{Agent: len(comps), Number: id})
	}
	return comps
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestRunMatchesSettleOracle is the word-wide fast path's contract: on
// random competitor sets across widths (including the word-boundary
// widths 63 and 64), Run must return exactly what the boolean wired-OR
// settle model returns — winner, winning number, and round count.
func TestRunMatchesSettleOracle(t *testing.T) {
	for _, width := range []int{1, 2, 7, 12, 31, 32, 33, 63, 64} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			a := New(width, 32)
			src := rng.New(uint64(width)*977 + 3)
			trials := 200
			if width == 1 {
				trials = 10 // only one distinct nonzero number exists
			}
			for trial := 0; trial < trials; trial++ {
				comps := randomComps(src, width, 24)
				fast := a.Run(comps)
				oracle := a.RunSettle(comps)
				if fast != oracle {
					t.Fatalf("trial %d: Run = %+v, RunSettle = %+v (comps %v)", trial, fast, oracle, comps)
				}
			}
		})
	}
}

// TestWidth64NoOverflow is the regression test for the settle loop's
// former `uint64(1) << width` bound, which wrapped to 0 at width 64 and
// made every competitor panic as out-of-range. The full 64-bit range
// must be usable, at width 63 and 64 alike.
func TestWidth64NoOverflow(t *testing.T) {
	cases := []struct {
		width int
		comps []Competitor
	}{
		{63, []Competitor{
			{Agent: 0, Number: 1<<63 - 1}, // all 63 lines asserted
			{Agent: 1, Number: 1 << 62},
			{Agent: 2, Number: 5},
		}},
		{64, []Competitor{
			{Agent: 0, Number: ^uint64(0)}, // all 64 lines asserted
			{Agent: 1, Number: 1 << 63},
			{Agent: 2, Number: 7},
		}},
	}
	for _, c := range cases {
		a := New(c.width, 8)
		var want uint64
		for _, cc := range c.comps {
			if cc.Number > want {
				want = cc.Number
			}
		}
		r := a.Run(c.comps)
		if r.WinningNumber != want || c.comps[r.Winner].Number != want {
			t.Errorf("width %d: settled to %b, want %b", c.width, r.WinningNumber, want)
		}
		if o := a.RunSettle(c.comps); o != r {
			t.Errorf("width %d: Run %+v != RunSettle %+v", c.width, r, o)
		}
	}
}

// TestWidth64BoundStillRejects pins that the non-wrapping bound check
// still rejects overwide numbers at width 63 (the widest width where an
// overwide uint64 exists).
func TestWidth64BoundStillRejects(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("number with bit 63 set on a 63-line arbiter did not panic")
		}
	}()
	New(63, 2).Run([]Competitor{{Agent: 0, Number: 1 << 63}})
}

// TestNewValidatesWidth pins the constructor's width range: the settle
// model carries one arbitration number per machine word.
func TestNewValidatesWidth(t *testing.T) {
	for _, w := range []int{0, -1, 65, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(width=%d) did not panic", w)
				}
			}()
			New(w, 4)
		}()
	}
	// Boundary widths construct fine.
	if New(1, 2).Width() != 1 || New(64, 2).Width() != 64 {
		t.Error("boundary widths mangled")
	}
}

// TestRunSettleEmptyAndTrace pins the oracle's empty-set behavior and
// that RunTraced still reports the same result as Run.
func TestRunSettleEmptyAndTrace(t *testing.T) {
	a := New(5, 8)
	if r := a.RunSettle(nil); r.Winner != -1 || r.WinningNumber != 0 {
		t.Errorf("RunSettle(nil) = %+v", r)
	}
	comps := []Competitor{{Agent: 0, Number: 21}, {Agent: 1, Number: 9}, {Agent: 2, Number: 30}}
	res, rows := a.RunTraced(comps)
	if got := a.Run(comps); got != res {
		t.Errorf("Run = %+v, RunTraced result = %+v", got, res)
	}
	if len(rows) == 0 {
		t.Error("RunTraced returned no line snapshots")
	}
}

// TestKernelPlanesMatchSettle cross-checks the third implementation of
// the same contention pass: the bitarb bit-plane tournament must pick
// the same winner and winning number as both settle models.
func TestKernelPlanesMatchSettle(t *testing.T) {
	const width, nAgents = 10, 40
	a := New(width, nAgents)
	planes := NewPlanes(width, nAgents)
	req := bitarb.NewVec(nAgents)
	src := rng.New(99)
	for trial := 0; trial < 300; trial++ {
		comps := randomComps(src, width, 30)
		req.Reset()
		// Slot i+1 carries competitor i (kernel identities are 1-based).
		for i, c := range comps {
			planes.Store(i+1, c.Number)
			req.Set(i + 1)
		}
		slot, num := planes.Resolve(req)
		r := a.Run(comps)
		if slot-1 != r.Winner || num != r.WinningNumber {
			t.Fatalf("trial %d: planes = (%d, %b), settle = (%d, %b)",
				trial, slot-1, num, r.Winner, r.WinningNumber)
		}
	}
}

// TestRunSteadyStateAllocs pins that the word-wide fast path allocates
// nothing once its applied buffer has grown.
func TestRunSteadyStateAllocs(t *testing.T) {
	a := New(8, 32)
	comps := make([]Competitor, 16)
	for i := range comps {
		comps[i] = Competitor{Agent: i, Number: uint64(16 - i)}
	}
	a.Run(comps)
	if allocs := testing.AllocsPerRun(100, func() { a.Run(comps) }); allocs != 0 {
		t.Errorf("Run allocates %v times in steady state, want 0", allocs)
	}
}

// BenchmarkSettleOracle measures the boolean line-by-line model that
// Run's word-wide settle replaced, for the trajectory comparison
// against BenchmarkSettle.
func BenchmarkSettleOracle(b *testing.B) {
	a := New(7, 64)
	comps := make([]Competitor, 32)
	for i := range comps {
		comps[i] = Competitor{Agent: i, Number: uint64(i*2 + 1)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.RunSettle(comps)
	}
}
