package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"busarb/internal/rng"
)

// classDriver extends the replay driver with urgent requests.
type classDriver struct {
	*driver
	cp ClassRequester
}

func newClassDriver(t *testing.T, p ClassRequester) *classDriver {
	return &classDriver{driver: newDriver(t, p), cp: p}
}

func (d *classDriver) requestClass(id int, now float64, urgent bool) {
	if d.waiting[id] {
		d.t.Fatalf("agent %d requested twice", id)
	}
	d.waiting[id] = true
	d.now = now
	d.cp.OnClassRequest(id, now, urgent)
}

func TestPriorityRRUrgentFirst(t *testing.T) {
	p := NewPriorityRR(8, RRIgnoreWithinClass)
	d := newClassDriver(t, p)
	d.requestClass(7, 0, false)
	d.requestClass(2, 0, true)
	if w := d.arbitrate(); w != 2 {
		t.Fatalf("grant = %d, want urgent 2 over non-urgent 7", w)
	}
	if w := d.arbitrate(); w != 7 {
		t.Fatalf("grant = %d, want 7", w)
	}
}

func TestPriorityRRNonUrgentStillRoundRobin(t *testing.T) {
	p := NewPriorityRR(8, RRIgnoreWithinClass)
	d := newClassDriver(t, p)
	d.requestClass(4, 0, false)
	d.requestClass(6, 0, false)
	if w := d.arbitrate(); w != 6 {
		t.Fatalf("grant = %d, want 6", w)
	}
	// lastWinner 6: agent 4 has RR priority over 8.
	d.requestClass(8, 1, false)
	if w := d.arbitrate(); w != 4 {
		t.Fatalf("grant = %d, want 4 (round-robin among non-urgent)", w)
	}
}

func TestPriorityRRWithinClassModes(t *testing.T) {
	// Two urgent requests; lastWinner = 5.
	// RRIgnoreWithinClass: both set the RR bit -> fixed priority: 7 wins.
	// RRWithinClass: the scan favors ids below 5 -> 3 wins.
	setup := func(mode RRPriorityMode) *classDriver {
		p := NewPriorityRR(8, mode)
		d := newClassDriver(t, p)
		d.requestClass(5, 0, false)
		if w := d.arbitrate(); w != 5 {
			t.Fatalf("setup grant = %d", w)
		}
		d.requestClass(3, 1, true)
		d.requestClass(7, 1, true)
		return d
	}
	if w := setup(RRIgnoreWithinClass).arbitrate(); w != 7 {
		t.Errorf("ignore mode: grant = %d, want 7 (fixed priority within class)", w)
	}
	if w := setup(RRWithinClass).arbitrate(); w != 3 {
		t.Errorf("within mode: grant = %d, want 3 (RR within class)", w)
	}
}

func TestPriorityRRAllUrgentNeverBlocked(t *testing.T) {
	// All-urgent traffic must still be serviced round-robin-ish without
	// deadlock in the within-class mode.
	p := NewPriorityRR(4, RRWithinClass)
	d := newClassDriver(t, p)
	counts := make([]int, 5)
	for id := 1; id <= 4; id++ {
		d.requestClass(id, 0, true)
	}
	for i := 0; i < 40; i++ {
		w := d.arbitrate()
		counts[w]++
		d.requestClass(w, float64(i+1), true)
	}
	for id := 1; id <= 4; id++ {
		if counts[id] != 10 {
			t.Errorf("agent %d served %d/40, want 10 (perfect RR within class)", id, counts[id])
		}
	}
}

func TestPriorityFCFS1MatchedCounterOnlyCountsOwnClass(t *testing.T) {
	p := NewPriorityFCFS1(8, CounterMatched)
	d := newClassDriver(t, p)
	d.requestClass(2, 0, false)
	d.requestClass(5, 0, true)
	d.requestClass(6, 0, true)
	// Urgent 6 wins; urgent 5 increments; non-urgent 2 does not (winner
	// class mismatch).
	if w := d.arbitrate(); w != 6 {
		t.Fatalf("grant = %d, want 6", w)
	}
	if p.Counter(5) != 1 {
		t.Errorf("counter(5) = %d, want 1", p.Counter(5))
	}
	if p.Counter(2) != 0 {
		t.Errorf("counter(2) = %d, want 0 (matched policy)", p.Counter(2))
	}
	if w := d.arbitrate(); w != 5 {
		t.Fatalf("grant = %d, want 5", w)
	}
	if w := d.arbitrate(); w != 2 {
		t.Fatalf("grant = %d, want 2", w)
	}
}

func TestPriorityFCFS1OverflowWraps(t *testing.T) {
	// With the overflow policy, a long stream of urgent wins can wrap a
	// waiting non-urgent counter back to zero.
	p := NewPriorityFCFS1(4, CounterOverflow) // 3 counter bits, modulus 8
	d := newClassDriver(t, p)
	d.requestClass(1, 0, false)
	for i := 0; i < 8; i++ {
		id := 2 + i%2
		d.requestClass(id, float64(i), true)
		if w := d.arbitrate(); w != id {
			t.Fatalf("urgent grant = %d, want %d", w, id)
		}
	}
	if p.Counter(1) != 0 {
		t.Errorf("counter(1) = %d, want 0 after 8 losses (wrapped)", p.Counter(1))
	}
	if p.Overflows() != 1 {
		t.Errorf("Overflows = %d, want 1", p.Overflows())
	}
}

func TestPriorityFCFS2DualLines(t *testing.T) {
	p := NewPriorityFCFS2(8)
	d := newClassDriver(t, p)
	d.requestClass(3, 0, false)
	// An urgent arrival pulses a-incr-priority: non-urgent 3 must NOT
	// increment.
	d.requestClass(6, 1, true)
	if c := p.line[0].Counter(3); c != 0 {
		t.Errorf("counter(3) = %d, want 0 (wrong-class pulse ignored)", c)
	}
	// A non-urgent arrival pulses a-incr: 3 increments, urgent 6 not.
	d.requestClass(2, 2, false)
	if c := p.line[0].Counter(3); c != 1 {
		t.Errorf("counter(3) = %d, want 1", c)
	}
	if c := p.line[1].Counter(6); c != 0 {
		t.Errorf("counter(6) = %d, want 0", c)
	}
	// Urgent always first; then FCFS among non-urgent.
	if w := d.arbitrate(); w != 6 {
		t.Fatalf("grant = %d, want urgent 6", w)
	}
	if w := d.arbitrate(); w != 3 {
		t.Fatalf("grant = %d, want 3 (older non-urgent)", w)
	}
	if w := d.arbitrate(); w != 2 {
		t.Fatalf("grant = %d, want 2", w)
	}
}

// Property: under any mixed history, no non-urgent request is ever
// granted while an urgent request waits.
func TestUrgentAlwaysBeforeNonUrgentProperty(t *testing.T) {
	protos := []func(n int) ClassRequester{
		func(n int) ClassRequester { return NewPriorityRR(n, RRIgnoreWithinClass) },
		func(n int) ClassRequester { return NewPriorityRR(n, RRWithinClass) },
		func(n int) ClassRequester { return NewPriorityFCFS1(n, CounterOverflow) },
		func(n int) ClassRequester { return NewPriorityFCFS1(n, CounterMatched) },
		func(n int) ClassRequester { return NewPriorityFCFS2(n) },
	}
	src := rng.New(707)
	for _, mk := range protos {
		for trial := 0; trial < 30; trial++ {
			n := 2 + src.Intn(12)
			p := mk(n)
			d := newClassDriver(t, p)
			urgent := map[int]bool{}
			ops := randomHistory(src, n, 100)
			for _, o := range ops {
				if o.arrive {
					if d.waiting[o.id] {
						continue
					}
					u := src.Intn(3) == 0
					d.requestClass(o.id, o.time, u)
					urgent[o.id] = u
				} else {
					if len(d.waiting) == 0 {
						continue
					}
					w := d.arbitrate()
					if !urgent[w] {
						for id := range d.waiting {
							if urgent[id] {
								t.Fatalf("%s trial %d: non-urgent %d granted while urgent %d waits",
									p.Name(), trial, w, id)
							}
						}
					}
					delete(urgent, w)
				}
			}
		}
	}
}

func TestPriorityProtocolResets(t *testing.T) {
	pr := NewPriorityRR(4, RRWithinClass)
	pr.OnClassRequest(1, 0, true)
	pr.Arbitrate(lines(pr.N(), 1))
	pr.Reset()
	if pr.rr.lastWinner != 0 || pr.urgent.Test(1) {
		t.Error("PriorityRR Reset incomplete")
	}
	pf := NewPriorityFCFS1(4, CounterOverflow)
	pf.OnClassRequest(1, 0, true)
	pf.OnClassRequest(2, 0, false)
	pf.Arbitrate(lines(pf.N(), 1, 2))
	pf.Reset()
	if pf.Counter(2) != 0 || pf.Overflows() != 0 {
		t.Error("PriorityFCFS1 Reset incomplete")
	}
	p2 := NewPriorityFCFS2(4)
	p2.OnClassRequest(1, 0, true)
	p2.Reset()
	if p2.line[1].Counter(1) != 0 || p2.line[1].ctr.Waits(1) || p2.urgent.Test(1) {
		t.Error("PriorityFCFS2 Reset incomplete")
	}
}

func TestPriorityNames(t *testing.T) {
	cases := map[string]Protocol{
		"RR1+prio":            NewPriorityRR(4, RRIgnoreWithinClass),
		"RR1+prio/rr":         NewPriorityRR(4, RRWithinClass),
		"FCFS1+prio/overflow": NewPriorityFCFS1(4, CounterOverflow),
		"FCFS1+prio/matched":  NewPriorityFCFS1(4, CounterMatched),
		"FCFS2+prio":          NewPriorityFCFS2(4),
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Errorf("Name = %q, want %q", p.Name(), want)
		}
		if p.N() != 4 {
			t.Errorf("%s N = %d", want, p.N())
		}
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"FP", "RR1", "RR2", "RR3", "FCFS1", "FCFS2", "AAP1", "AAP2", "Hybrid"} {
		f, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		p := f(8)
		if p.N() != 8 {
			t.Errorf("%s factory built N=%d", name, p.N())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
	if len(Names()) != len(Registry) {
		t.Error("Names() incomplete")
	}
}

// TestByNameUnknown pins the registry listing — sorted, so every CLI
// that prints it is run-to-run identical — and the unknown-name error,
// which names the valid choices.
func TestByNameUnknown(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() = %v, want sorted", names)
	}
	_, err := ByName("BOGUS")
	if err == nil {
		t.Fatal("ByName(BOGUS) succeeded")
	}
	if want := fmt.Sprint(names); !strings.Contains(err.Error(), want) {
		t.Errorf("ByName(BOGUS) error %q does not list the choices %s", err, want)
	}
}
