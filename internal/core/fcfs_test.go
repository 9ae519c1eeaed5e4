package core

import (
	"testing"

	"busarb/internal/central"
	"busarb/internal/rng"
)

func TestFCFS1ArrivalOrderAcrossArbitrations(t *testing.T) {
	// Requests separated by at least one arbitration are served in
	// arrival order, regardless of static identity.
	p := NewFCFS1(8)
	d := newDriver(t, p)
	d.requestAt(2, 1.0)
	d.requestAt(7, 2.0)
	// An arbitration happens between the arrivals of 7 and 5: agent 2
	// and 7 compete, 7 loses... no: first arbitration serves by counter
	// then id. Both have counter 0, so 7 wins the first arbitration.
	if w := d.arbitrate(); w != 7 {
		t.Fatalf("grant = %d (counters tied, higher id wins), want 7", w)
	}
	// Agent 2 lost once: counter 1. A new request from 5 has counter 0.
	d.requestAt(5, 3.0)
	if w := d.arbitrate(); w != 2 {
		t.Fatalf("grant = %d, want 2 (older request wins on counter)", w)
	}
	if w := d.arbitrate(); w != 5 {
		t.Fatalf("grant = %d, want 5", w)
	}
}

func TestFCFS1TieBreaksByStaticID(t *testing.T) {
	// Requests in the same inter-arbitration interval share a counter
	// value and are served in static-identity order (§3.2) — the
	// protocol's residual unfairness, measured in Table 4.1.
	p := NewFCFS1(8)
	d := newDriver(t, p)
	d.requestAt(3, 1.0)
	d.requestAt(6, 1.5)
	d.requestAt(1, 1.7)
	if w := d.arbitrate(); w != 6 {
		t.Fatalf("grant = %d, want 6", w)
	}
	if w := d.arbitrate(); w != 3 {
		t.Fatalf("grant = %d, want 3 (both waited 1 arbitration; 3 > 1)", w)
	}
	if w := d.arbitrate(); w != 1 {
		t.Fatalf("grant = %d, want 1", w)
	}
}

func TestFCFS1CounterLifecycle(t *testing.T) {
	p := NewFCFS1(4)
	p.OnRequest(1, 0)
	p.OnRequest(2, 0)
	p.Arbitrate(lines(p.N(), 1, 2)) // 2 wins, 1 increments
	if p.Counter(1) != 1 {
		t.Errorf("loser counter = %d, want 1", p.Counter(1))
	}
	if p.Counter(2) != 0 {
		t.Errorf("winner counter = %d, want 0 (reset on win)", p.Counter(2))
	}
}

func TestFCFS1CounterSaturates(t *testing.T) {
	// With 1 counter bit, the counter saturates at 1 rather than
	// wrapping (wrapping would invert service order).
	p := NewFCFS1Bits(4, 1)
	p.OnRequest(1, 0)
	p.OnRequest(2, 0)
	p.OnRequest(3, 0)
	p.Arbitrate(lines(p.N(), 1, 2, 3)) // 3 wins; 1,2 -> ctr 1
	p.OnRequest(3, 1)
	p.Arbitrate(lines(p.N(), 1, 2, 3)) // 2 wins (ctr 1, id 2 beats id 1); 1 saturates
	if p.Counter(1) != 1 {
		t.Errorf("counter = %d, want saturated 1", p.Counter(1))
	}
	if p.Name() != "FCFS1/1b" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestFCFS1BitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("0 counter bits did not panic")
		}
	}()
	NewFCFS1Bits(4, 0)
}

func TestFCFS2ExactArrivalOrder(t *testing.T) {
	// FCFS2 serves strictly in arrival order even when arrivals fall
	// between arbitrations — the case FCFS1 gets wrong.
	p := NewFCFS2(8)
	d := newDriver(t, p)
	d.requestAt(2, 1.0)
	d.requestAt(7, 2.0) // no arbitration between: FCFS1 would serve 7 first
	if w := d.arbitrate(); w != 2 {
		t.Fatalf("grant = %d, want 2 (strict arrival order)", w)
	}
	if w := d.arbitrate(); w != 7 {
		t.Fatalf("grant = %d, want 7", w)
	}
}

func TestFCFS2SimultaneousArrivalsTieByID(t *testing.T) {
	p := NewFCFS2(8)
	d := newDriver(t, p)
	d.requestAt(3, 1.0)
	d.requestAt(5, 1.0) // identical instant: same counting interval
	d.requestAt(1, 2.0)
	if w := d.arbitrate(); w != 5 {
		t.Fatalf("grant = %d, want 5 (tie broken by higher id)", w)
	}
	if w := d.arbitrate(); w != 3 {
		t.Fatalf("grant = %d, want 3", w)
	}
	if w := d.arbitrate(); w != 1 {
		t.Fatalf("grant = %d, want 1", w)
	}
}

func TestFCFS2CounterValues(t *testing.T) {
	p := NewFCFS2(8)
	p.OnRequest(4, 1.0)
	p.OnRequest(6, 2.0)
	p.OnRequest(2, 2.0) // same instant as 6
	p.OnRequest(8, 3.0)
	if p.Counter(4) != 3 {
		t.Errorf("counter(4) = %d, want 3 (three later arrivals)", p.Counter(4))
	}
	if p.Counter(6) != 1 || p.Counter(2) != 1 {
		t.Errorf("counters(6,2) = %d,%d, want 1,1 (shared interval, one later pulse)",
			p.Counter(6), p.Counter(2))
	}
	if p.Counter(8) != 0 {
		t.Errorf("counter(8) = %d, want 0", p.Counter(8))
	}
}

// FCFS2 must match the central FCFS queue on arbitrary histories.
func TestFCFS2MatchesCentralQueue(t *testing.T) {
	src := rng.New(303)
	for trial := 0; trial < 200; trial++ {
		n := 2 + src.Intn(20)
		ops := randomHistory(src, n, 120)
		grants := replay(t, NewFCFS2(n), ops)

		var q central.FCFSQueue
		waiting := map[int]bool{}
		var want []int
		for _, o := range ops {
			if o.arrive {
				if waiting[o.id] {
					continue
				}
				waiting[o.id] = true
				q.Enqueue(o.id, o.time)
			} else {
				if q.Len() == 0 {
					continue
				}
				w := q.Grant()
				delete(waiting, w)
				want = append(want, w)
			}
		}
		if !equalInts(grants, want) {
			t.Fatalf("trial %d (n=%d): FCFS2 %v != central queue %v", trial, n, grants, want)
		}
	}
}

// FCFS1's deviation from true FCFS is bounded: it never serves a request
// R2 before R1 when R1 arrived earlier AND at least one arbitration
// separated their arrivals (then R1's counter strictly exceeds R2's).
func TestFCFS1BoundedReordering(t *testing.T) {
	src := rng.New(404)
	for trial := 0; trial < 100; trial++ {
		n := 2 + src.Intn(16)
		p := NewFCFS1(n)
		d := newDriver(t, p)
		type reqInfo struct {
			time     float64
			arbsSeen int
		}
		arbs := 0
		pendingInfo := map[int]reqInfo{}
		ops := randomHistory(src, n, 150)
		var served []reqInfo
		for _, o := range ops {
			if o.arrive {
				if d.waiting[o.id] {
					continue
				}
				d.requestAt(o.id, o.time)
				pendingInfo[o.id] = reqInfo{time: o.time, arbsSeen: arbs}
			} else {
				if len(d.waiting) == 0 {
					continue
				}
				w := d.arbitrate()
				arbs++
				served = append(served, pendingInfo[w])
				delete(pendingInfo, w)
			}
		}
		for i := 0; i < len(served); i++ {
			for j := i + 1; j < len(served); j++ {
				// served[j] was granted after served[i]; violation if
				// served[j] arrived earlier and an arbitration separated
				// the arrivals.
				if served[j].time < served[i].time && served[j].arbsSeen < served[i].arbsSeen {
					t.Fatalf("trial %d: request arriving at %v (before arb %d) served after request at %v (after arb %d)",
						trial, served[j].time, served[j].arbsSeen, served[i].time, served[i].arbsSeen)
				}
			}
		}
	}
}

func TestHybridFCFSAcrossIntervalsRRWithin(t *testing.T) {
	p := NewHybrid(8)
	d := newDriver(t, p)
	// Distinct arrival instants: strict FCFS, like FCFS2.
	d.requestAt(2, 1.0)
	d.requestAt(7, 2.0)
	if w := d.arbitrate(); w != 2 {
		t.Fatalf("grant = %d, want 2 (FCFS across intervals)", w)
	}
	if w := d.arbitrate(); w != 7 {
		t.Fatalf("grant = %d, want 7", w)
	}
	// Simultaneous arrivals: round-robin order within the interval.
	// lastWinner is 7, so the RR scan favors ids below 7.
	d.requestAt(3, 5.0)
	d.requestAt(5, 5.0)
	d.requestAt(8, 5.0)
	if w := d.arbitrate(); w != 5 {
		t.Fatalf("grant = %d, want 5 (RR: highest id below last winner 7)", w)
	}
	if w := d.arbitrate(); w != 3 {
		t.Fatalf("grant = %d, want 3 (RR scan continues downward)", w)
	}
	if w := d.arbitrate(); w != 8 {
		t.Fatalf("grant = %d, want 8 (RR wraps to top)", w)
	}
}

func TestHybridReset(t *testing.T) {
	p := NewHybrid(4)
	p.OnRequest(1, 0)
	p.OnRequest(2, 1)
	p.Arbitrate(lines(p.N(), 1, 2))
	p.Reset()
	p.OnRequest(3, 0)
	if out := p.Arbitrate(lines(p.N(), 3)); out.Winner != 3 {
		t.Errorf("after reset, winner = %d", out.Winner)
	}
}

func TestFCFSNames(t *testing.T) {
	if NewFCFS1(8).Name() != "FCFS1" || NewFCFS2(8).Name() != "FCFS2" || NewHybrid(8).Name() != "Hybrid" {
		t.Error("names wrong")
	}
}

func TestFCFS2Reset(t *testing.T) {
	p := NewFCFS2(4)
	p.OnRequest(1, 1.0)
	p.OnRequest(2, 2.0)
	p.Reset()
	if p.Counter(1) != 0 || p.Counter(2) != 0 {
		t.Error("Reset left counters")
	}
	// After reset, a fresh pair of simultaneous requests still ties.
	p.OnRequest(1, 2.0) // same time as pre-reset pulse: must not leak
	p.OnRequest(3, 2.0)
	if p.Counter(1) != 0 || p.Counter(3) != 0 {
		t.Errorf("counters after reset = %d,%d, want 0,0", p.Counter(1), p.Counter(3))
	}
}
