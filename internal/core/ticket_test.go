package core

import (
	"testing"

	"busarb/internal/rng"
)

func TestTicketFCFSOrder(t *testing.T) {
	p := NewTicketFCFS(8)
	d := newDriver(t, p)
	d.requestAt(6, 1.0)
	d.requestAt(2, 2.0)
	d.requestAt(7, 3.0)
	for _, want := range []int{6, 2, 7} {
		if w := d.arbitrate(); w != want {
			t.Fatalf("grant = %d, want %d (ticket order)", w, want)
		}
	}
	if p.TicketCycles != 3 {
		t.Errorf("TicketCycles = %d, want 3 (one dispense per request)", p.TicketCycles)
	}
}

// The ticket scheme and FCFS2 implement the same policy; on histories
// without simultaneous arrivals they must grant identically.
func TestTicketMatchesFCFS2(t *testing.T) {
	src := rng.New(55)
	for trial := 0; trial < 100; trial++ {
		n := 2 + src.Intn(16)
		ops := randomHistory(src, n, 120)
		// Strip simultaneous arrivals: FCFS2 ties by identity, the
		// ticket dispenser by dispense order.
		var filtered []op
		lastT := -1.0
		for _, o := range ops {
			if o.arrive && o.time == lastT {
				continue
			}
			filtered = append(filtered, o)
			lastT = o.time
		}
		g1 := replay(t, NewTicketFCFS(n), filtered)
		g2 := replay(t, NewFCFS2(n), filtered)
		if !equalInts(g1, g2) {
			t.Fatalf("trial %d (n=%d): Ticket %v != FCFS2 %v", trial, n, g1, g2)
		}
	}
}

func TestTicketWrapsSafely(t *testing.T) {
	// Drive far past the modulus to exercise counter wrap: order must
	// stay FCFS throughout.
	n := 4
	p := NewTicketFCFS(n) // modulus = 2^6 = 64
	d := newDriver(t, p)
	src := rng.New(56)
	now := 0.0
	var queue []int
	for i := 0; i < 500; i++ {
		now++
		if src.Intn(2) == 0 {
			id := 1 + src.Intn(n)
			if !d.waiting[id] {
				d.requestAt(id, now)
				queue = append(queue, id)
			}
		} else if len(queue) > 0 {
			w := d.arbitrate()
			if w != queue[0] {
				t.Fatalf("step %d: grant %d, oldest ticket holder %d", i, w, queue[0])
			}
			queue = queue[1:]
		}
	}
	if p.TicketCycles < 100 {
		t.Fatalf("only %d tickets dispensed; wrap not exercised", p.TicketCycles)
	}
}

func TestTicketRegistryAndReset(t *testing.T) {
	f, err := ByName("Ticket")
	if err != nil {
		t.Fatal(err)
	}
	p := f(6).(*TicketFCFS)
	p.OnRequest(1, 0)
	p.Reset()
	if p.TicketCycles != 0 || p.ctr.Waits(1) {
		t.Error("Reset incomplete")
	}
	if p.Name() != "Ticket" || p.N() != 6 {
		t.Error("metadata wrong")
	}
}

// TestTicketKeptLineCompetesFrozen pins what a served agent whose line
// stays up (a snoop processor between the write-back and the fill of
// one chain) competes with: its counter frozen at service start, which
// is FCFS2's rule, not the age of its spent ticket, which kept growing
// with every ticket drawn after it. Agent 1 is served with its line
// kept up, and agent 3's request then ages agent 2's ticket to agent
// 1's frozen count, so the higher identity, 2, wins; the spent ticket
// would have been older and won.
func TestTicketKeptLineCompetesFrozen(t *testing.T) {
	for _, p := range []Protocol{NewTicketFCFS(4), NewFCFS2(4)} {
		p.OnRequest(1, 1)
		p.OnRequest(2, 2)
		if w := p.Arbitrate(lines(4, 1, 2)).Winner; w != 1 {
			t.Fatalf("%s: first grant %d, want the oldest request 1", p.Name(), w)
		}
		p.OnServiceStart(1, 2)
		p.OnRequest(3, 3)
		if w := p.Arbitrate(lines(4, 1, 2, 3)).Winner; w != 2 {
			t.Errorf("%s: grant %d with agent 1's line kept up, want 2", p.Name(), w)
		}
	}
}
