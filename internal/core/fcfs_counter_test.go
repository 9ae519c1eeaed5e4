package core

import (
	"sort"
	"testing"

	"busarb/internal/rng"
)

// fcfsOracle is a central (non-distributed) FCFS1 reference: the same
// lose-count/win-reset rule with an unbounded counter and global
// knowledge. It is what the distributed implementation must match when
// its counter field is wide enough.
type fcfsOracle struct {
	counter []int
}

func (o *fcfsOracle) arbitrate(waiting []int) int {
	best := waiting[0]
	for _, id := range waiting[1:] {
		if o.counter[id] > o.counter[best] ||
			(o.counter[id] == o.counter[best] && id > best) {
			best = id
		}
	}
	for _, id := range waiting {
		if id == best {
			o.counter[id] = 0
		} else {
			o.counter[id]++
		}
	}
	return best
}

// TestFCFS1CounterBound reconciles the §3.2 counter-width claim with the
// implementation: on request histories far longer than the counter's
// modulus, the full-width (ceil(log2 N) bits) FCFS1 grants exactly what
// the unbounded central oracle grants, and the oracle's counter never
// exceeds N-1 — so at full width neither saturation nor wrapping can
// ever engage, and the lose-counter needs no modular arithmetic at all.
func TestFCFS1CounterBound(t *testing.T) {
	for _, n := range []int{4, 10, 16} {
		p := NewFCFS1(n)
		oracle := &fcfsOracle{counter: make([]int, n+1)}
		src := rng.New(uint64(n))

		waiting := make([]bool, n+1)
		var ids []int
		maxCounter := 0
		const rounds = 4000 // ≫ the 2^ceil(log2 n) modulus
		for r := 0; r < rounds; r++ {
			// Random subset of idle agents issues requests (the bus stays
			// near saturation, which is where counters climb).
			for id := 1; id <= n; id++ {
				if !waiting[id] && src.Float64() < 0.7 {
					waiting[id] = true
					p.OnRequest(id, float64(r))
				}
			}
			ids = ids[:0]
			for id := 1; id <= n; id++ {
				if waiting[id] {
					ids = append(ids, id)
				}
			}
			if len(ids) == 0 {
				continue
			}
			sort.Ints(ids)
			got := p.Arbitrate(lines(n, ids...)).Winner
			want := oracle.arbitrate(ids)
			if got != want {
				t.Fatalf("n=%d round %d: FCFS1 granted %d, unbounded oracle %d", n, r, got, want)
			}
			waiting[got] = false
			for id := 1; id <= n; id++ {
				if oracle.counter[id] > maxCounter {
					maxCounter = oracle.counter[id]
				}
			}
		}
		if maxCounter > n-1 {
			t.Errorf("n=%d: unbounded lose-counter reached %d, §3.2 bound is N-1=%d", n, maxCounter, n-1)
		}
		if maxCounter == 0 {
			t.Errorf("n=%d: history never exercised the counter", n)
		}
	}
}

// TestFCFS1NarrowCounterSaturationPreservesSeniority pins why a narrow
// counter must saturate rather than wrap ("overflow" in §3.2's terms):
// with a 1-bit counter, an agent that has lost twice wraps back to 0 and
// loses to a brand-new request, inverting FCFS order; the saturating
// implementation keeps it senior.
func TestFCFS1NarrowCounterSaturationPreservesSeniority(t *testing.T) {
	p := NewFCFS1Bits(4, 1)
	wrapped := []int{0, 0, 0, 0, 0} // the modular-counter alternative, by id

	wrappedArb := func(ids []int) int {
		best := ids[0]
		for _, id := range ids[1:] {
			if wrapped[id] > wrapped[best] || (wrapped[id] == wrapped[best] && id > best) {
				best = id
			}
		}
		for _, id := range ids {
			if id == best {
				wrapped[id] = 0
			} else {
				wrapped[id] = (wrapped[id] + 1) % 2
			}
		}
		return best
	}

	// Agent 1 requests alongside 3 and 4, then loses twice.
	for _, id := range []int{1, 3, 4} {
		p.OnRequest(id, 0)
	}
	if w := p.Arbitrate(lines(p.N(), 1, 3, 4)).Winner; w != 4 || wrappedArb([]int{1, 3, 4}) != 4 {
		t.Fatalf("first pass winner %d, want 4 (identity order at equal counters)", w)
	}
	if w := p.Arbitrate(lines(p.N(), 1, 3)).Winner; w != 3 || wrappedArb([]int{1, 3}) != 3 {
		t.Fatalf("second pass winner %d, want 3 (1-bit counters tie at 1)", w)
	}

	// Agent 1 has now waited through two losses; agent 2 is brand new.
	p.OnRequest(2, 1)
	if c := p.Counter(1); c != 1 {
		t.Fatalf("saturating counter of agent 1 = %d, want 1 (held at the field max)", c)
	}
	if wrapped[1] != 0 {
		t.Fatalf("wrapped counter of agent 1 = %d after two losses, want 0 (wrapped around)", wrapped[1])
	}
	if w := p.Arbitrate(lines(p.N(), 1, 2)).Winner; w != 1 {
		t.Errorf("saturating FCFS1 granted %d, want the senior agent 1", w)
	}
	if w := wrappedArb([]int{1, 2}); w != 2 {
		t.Errorf("wrapped counter granted %d; expected it to demonstrate the inversion (grant 2)", w)
	}
}
