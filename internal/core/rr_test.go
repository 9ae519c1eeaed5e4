package core

import (
	"testing"

	"busarb/internal/central"
	"busarb/internal/rng"
)

func TestRR1ScanOrder(t *testing.T) {
	// After agent j wins, the scan is j-1..1 then N..j (§3.1).
	p := NewRR1(8)
	d := newDriver(t, p)
	for id := 1; id <= 8; id++ {
		d.request(id)
	}
	// First arbitration: lastWinner=0, degenerates to fixed priority.
	if w := d.arbitrate(); w != 8 {
		t.Fatalf("first grant = %d, want 8", w)
	}
	// Then the scan proceeds 7, 6, ..., 1.
	for want := 7; want >= 1; want-- {
		if w := d.arbitrate(); w != want {
			t.Fatalf("grant = %d, want %d", w, want)
		}
	}
}

func TestRR1WrapAround(t *testing.T) {
	p := NewRR1(5)
	d := newDriver(t, p)
	d.request(2)
	d.request(4)
	if w := d.arbitrate(); w != 4 {
		t.Fatalf("grant = %d, want 4", w)
	}
	// lastWinner=4: agent 2 (below 4) has RR priority over agent 5.
	d.request(5)
	if w := d.arbitrate(); w != 2 {
		t.Fatalf("grant = %d, want 2 (RR bit beats higher static id)", w)
	}
	// lastWinner=2: only 5 waits; 5 >= 2, wins via upper scan half.
	if w := d.arbitrate(); w != 5 {
		t.Fatalf("grant = %d, want 5", w)
	}
}

func TestRR1NoStarvation(t *testing.T) {
	// Under continuous full contention, every agent is served exactly
	// once per N grants.
	const n = 16
	p := NewRR1(n)
	d := newDriver(t, p)
	for id := 1; id <= n; id++ {
		d.request(id)
	}
	counts := make([]int, n+1)
	for round := 0; round < 10; round++ {
		for i := 0; i < n; i++ {
			w := d.arbitrate()
			counts[w]++
			d.request(w) // immediately re-request: saturated bus
		}
	}
	for id := 1; id <= n; id++ {
		if counts[id] != 10 {
			t.Errorf("agent %d served %d times in 10 rounds, want 10", id, counts[id])
		}
	}
}

func TestRR3RepassSemantics(t *testing.T) {
	p := NewRR3(6)
	// lastWinner starts 0: first pass is empty and must repass.
	out := p.Arbitrate(lines(p.N(), 3, 5))
	if !out.Repass || out.Winner != 0 {
		t.Fatalf("first pass = %+v, want repass", out)
	}
	if p.LastWinner() != 7 {
		t.Fatalf("after empty pass, recorded winner = %d, want N+1 = 7", p.LastWinner())
	}
	out = p.Arbitrate(lines(p.N(), 3, 5))
	if out.Repass || out.Winner != 5 {
		t.Fatalf("second pass = %+v, want winner 5", out)
	}
	// Now only 6 waits: 6 >= 5 so another empty pass.
	out = p.Arbitrate(lines(p.N(), 6))
	if !out.Repass {
		t.Fatalf("pass with only higher ids = %+v, want repass", out)
	}
	out = p.Arbitrate(lines(p.N(), 6))
	if out.Winner != 6 {
		t.Fatalf("after reset, winner = %d, want 6", out.Winner)
	}
}

// The three RR implementations must produce identical grant sequences on
// arbitrary histories.
func TestRRImplementationsEquivalent(t *testing.T) {
	src := rng.New(101)
	for trial := 0; trial < 200; trial++ {
		n := 2 + src.Intn(20)
		ops := randomHistory(src, n, 120)
		g1 := replay(t, NewRR1(n), ops)
		g2 := replay(t, NewRR2(n), ops)
		g3 := replay(t, NewRR3(n), ops)
		if !equalInts(g1, g2) {
			t.Fatalf("trial %d (n=%d): RR1 %v != RR2 %v", trial, n, g1, g2)
		}
		if !equalInts(g1, g3) {
			t.Fatalf("trial %d (n=%d): RR1 %v != RR3 %v", trial, n, g1, g3)
		}
	}
}

// The paper's claim (§1): the distributed RR protocol implements "true
// round-robin scheduling, identical to the central round-robin arbiter".
func TestRRMatchesCentralOracle(t *testing.T) {
	src := rng.New(202)
	for trial := 0; trial < 200; trial++ {
		n := 2 + src.Intn(20)
		ops := randomHistory(src, n, 120)
		grants := replay(t, NewRR1(n), ops)

		// Replay the same effective history through the central arbiter.
		oracle := central.NewRoundRobin(n)
		waiting := map[int]bool{}
		var want []int
		for _, o := range ops {
			if o.arrive {
				if waiting[o.id] {
					continue
				}
				waiting[o.id] = true
			} else {
				if len(waiting) == 0 {
					continue
				}
				ids := make([]int, 0, len(waiting))
				for id := range waiting {
					ids = append(ids, id)
				}
				w := oracle.Grant(ids)
				delete(waiting, w)
				want = append(want, w)
			}
		}
		if !equalInts(grants, want) {
			t.Fatalf("trial %d (n=%d): distributed %v != central %v", trial, n, grants, want)
		}
	}
}

func TestRRReset(t *testing.T) {
	for _, p := range []Protocol{NewRR1(4), NewRR2(4), NewRR3(4)} {
		p.Arbitrate(lines(p.N(), 1, 2))
		if out := p.Arbitrate(lines(p.N(), 1, 2)); out.Repass {
			p.Arbitrate(lines(p.N(), 1, 2))
		}
		p.Reset()
		// After reset, RR1/RR2 grant max id; RR3 repasses first.
		out := p.Arbitrate(lines(p.N(), 1, 3))
		if out.Repass {
			out = p.Arbitrate(lines(p.N(), 1, 3))
		}
		if out.Winner != 3 {
			t.Errorf("%s after Reset: winner = %d, want 3", p.Name(), out.Winner)
		}
	}
}

func TestRRNames(t *testing.T) {
	if NewRR1(4).Name() != "RR1" || NewRR2(4).Name() != "RR2" || NewRR3(4).Name() != "RR3" {
		t.Error("names wrong")
	}
	if NewRR1(4).N() != 4 {
		t.Error("N wrong")
	}
}
