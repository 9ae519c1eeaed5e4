package core

import (
	"fmt"
	"testing"

	"busarb/internal/bitarb"
	"busarb/internal/ident"
	"busarb/internal/rng"
)

// The arbitration-number encoders the RR1 and FCFS variants are held
// to: at each arbitration every competitor applies its composite
// number (package ident) and the largest wins — the settled maximum
// of §2.1 that package contention verifies the wired-OR lines compute.
// The production types reach the same winners from their base
// protocol's state (RR1's split, bitarb.Arrivals); these are the
// differential references of TestVariantsMatchEncoders.

// contend runs one contention pass among the agents on the lines:
// number returns an agent's arbitration number. The numbers embed
// distinct static identities, so the maximum is unique.
func contend(waiting *bitarb.Vec, number func(id int) uint64) int {
	winner, best := 0, uint64(0)
	for id := waiting.Max(); id > 0; id = waiting.MaxBelow(id) {
		if v := number(id); winner == 0 || v > best {
			winner, best = id, v
		}
	}
	return winner
}

// classProtocol is the part of a ClassRequester the differential test
// drives; the class-blind references ignore the class.
type classProtocol interface {
	OnClassRequest(id int, now float64, urgent bool)
	OnServiceStart(id int, now float64)
	Arbitrate(waiting *bitarb.Vec) Outcome
}

// classBlind drives a plain Protocol as a classProtocol.
type classBlind struct{ Protocol }

func (p classBlind) OnClassRequest(id int, now float64, _ bool) { p.OnRequest(id, now) }

// encPriorityRR encodes [ priority bit | round-robin bit | static ID ].
type encPriorityRR struct {
	layout     ident.Layout
	mode       RRPriorityMode
	lastWinner int
	urgent     []bool
}

func newEncPriorityRR(n int, mode RRPriorityMode) *encPriorityRR {
	return &encPriorityRR{
		layout: ident.Layout{StaticBits: ident.Width(n), RRBit: true, PriorityBit: true},
		mode:   mode,
		urgent: make([]bool, n+1),
	}
}

func (p *encPriorityRR) OnClassRequest(id int, _ float64, urgent bool) { p.urgent[id] = urgent }
func (p *encPriorityRR) OnServiceStart(id int, _ float64)              { p.urgent[id] = false }

func (p *encPriorityRR) Arbitrate(waiting *bitarb.Vec) Outcome {
	w := contend(waiting, func(id int) uint64 {
		rr := id < p.lastWinner
		if p.urgent[id] && p.mode == RRIgnoreWithinClass {
			rr = true
		}
		return p.layout.Encode(ident.Number{Static: id, RR: rr, Priority: p.urgent[id]})
	})
	p.lastWinner = w
	return Outcome{Winner: w}
}

// encPriorityFCFS1 encodes [ priority bit | counter | static ID ] and
// counts losses per policy in one counter array.
type encPriorityFCFS1 struct {
	layout    ident.Layout
	policy    FCFSCounterPolicy
	modulus   int
	counter   []int
	urgent    []bool
	overflows int64
}

func newEncPriorityFCFS1(n int, policy FCFSCounterPolicy) *encPriorityFCFS1 {
	bits := ident.Width(n)
	return &encPriorityFCFS1{
		layout:  ident.Layout{StaticBits: bits, CounterBits: bits, PriorityBit: true},
		policy:  policy,
		modulus: 1 << bits,
		counter: make([]int, n+1),
		urgent:  make([]bool, n+1),
	}
}

func (p *encPriorityFCFS1) OnClassRequest(id int, _ float64, urgent bool) {
	p.counter[id] = 0
	p.urgent[id] = urgent
}

func (p *encPriorityFCFS1) OnServiceStart(id int, _ float64) { p.urgent[id] = false }

func (p *encPriorityFCFS1) Arbitrate(waiting *bitarb.Vec) Outcome {
	w := contend(waiting, func(id int) uint64 {
		return p.layout.Encode(ident.Number{Static: id, Counter: p.counter[id], Priority: p.urgent[id]})
	})
	winnerUrgent := p.urgent[w]
	for id := waiting.Max(); id > 0; id = waiting.MaxBelow(id) {
		if id == w {
			p.counter[id] = 0
			continue
		}
		switch p.policy {
		case CounterOverflow:
			p.counter[id]++
			if p.counter[id] == p.modulus {
				p.counter[id] = 0
				p.overflows++
			}
		case CounterMatched:
			if p.urgent[id] == winnerUrgent && p.counter[id] < p.modulus-1 {
				p.counter[id]++
			}
		}
	}
	return Outcome{Winner: w}
}

// encPriorityFCFS2 counts each class's a-incr pulses against that
// class's waiting agents in one counter array.
type encPriorityFCFS2 struct {
	n       int
	layout  ident.Layout
	counter []int
	waiting []bool
	urgent  []bool
	lastT   [2]float64
	hasLast [2]bool
}

func newEncPriorityFCFS2(n int) *encPriorityFCFS2 {
	return &encPriorityFCFS2{
		n:       n,
		layout:  ident.Layout{StaticBits: ident.Width(n), CounterBits: ident.Width(n), PriorityBit: true},
		counter: make([]int, n+1),
		waiting: make([]bool, n+1),
		urgent:  make([]bool, n+1),
	}
}

func (p *encPriorityFCFS2) OnClassRequest(id int, now float64, urgent bool) {
	cls := 0
	if urgent {
		cls = 1
	}
	samePulse := p.hasLast[cls] && now == p.lastT[cls]
	for a := 1; a <= p.n; a++ {
		if p.waiting[a] && p.urgent[a] == urgent {
			if samePulse && p.counter[a] == 0 {
				continue
			}
			if p.counter[a] < 1<<p.layout.CounterBits-1 {
				p.counter[a]++
			}
		}
	}
	p.counter[id] = 0
	p.waiting[id] = true
	p.urgent[id] = urgent
	p.lastT[cls], p.hasLast[cls] = now, true
}

func (p *encPriorityFCFS2) OnServiceStart(id int, _ float64) {
	p.waiting[id] = false
	p.urgent[id] = false
}

func (p *encPriorityFCFS2) Arbitrate(waiting *bitarb.Vec) Outcome {
	return Outcome{Winner: contend(waiting, func(id int) uint64 {
		return p.layout.Encode(ident.Number{Static: id, Counter: p.counter[id], Priority: p.urgent[id]})
	})}
}

// encHybrid encodes [ counter | round-robin bit | static ID ] over
// FCFS2's a-incr counting.
type encHybrid struct {
	n          int
	layout     ident.Layout
	counter    []int
	waiting    []bool
	lastWinner int
	lastT      float64
	hasLast    bool
}

func newEncHybrid(n int) *encHybrid {
	return &encHybrid{
		n:       n,
		layout:  ident.Layout{StaticBits: ident.Width(n), RRBit: true, CounterBits: ident.Width(n)},
		counter: make([]int, n+1),
		waiting: make([]bool, n+1),
	}
}

func (p *encHybrid) OnClassRequest(id int, now float64, _ bool) {
	samePulse := p.hasLast && now == p.lastT
	for a := 1; a <= p.n; a++ {
		if p.waiting[a] {
			if samePulse && p.counter[a] == 0 {
				continue
			}
			if p.counter[a] < 1<<p.layout.CounterBits-1 {
				p.counter[a]++
			}
		}
	}
	p.counter[id] = 0
	p.waiting[id] = true
	p.lastT, p.hasLast = now, true
}

func (p *encHybrid) OnServiceStart(id int, _ float64) { p.waiting[id] = false }

func (p *encHybrid) Arbitrate(waiting *bitarb.Vec) Outcome {
	w := contend(waiting, func(id int) uint64 {
		return p.layout.Encode(ident.Number{Static: id, RR: id < p.lastWinner, Counter: p.counter[id]})
	})
	p.lastWinner = w
	return Outcome{Winner: w}
}

// encTicket maps the circular age of each agent's ticket onto the
// counter field: [ age | static ID ].
type encTicket struct {
	layout       ident.Layout
	modulus      int
	next         int
	ticket       []int
	TicketCycles int64
}

func newEncTicket(n int) *encTicket {
	k := ident.Width(n)
	return &encTicket{
		layout:  ident.Layout{StaticBits: k, CounterBits: 2 * k},
		modulus: 1 << (2 * k),
		ticket:  make([]int, n+1),
	}
}

func (p *encTicket) OnClassRequest(id int, _ float64, _ bool) {
	p.ticket[id] = p.next
	p.next = (p.next + 1) % p.modulus
	p.TicketCycles++
}

func (p *encTicket) OnServiceStart(int, float64) {}

func (p *encTicket) Arbitrate(waiting *bitarb.Vec) Outcome {
	return Outcome{Winner: contend(waiting, func(id int) uint64 {
		age := (p.next - p.ticket[id] + p.modulus) % p.modulus
		return p.layout.Encode(ident.Number{Static: id, Counter: age})
	})}
}

// variantCase pairs a registered variant with its encoder. classes
// issues urgent requests; kept lines let a served agent keep its line
// up until its next request, as a snoop processor does through a
// write-back and fill chain.
type variantCase struct {
	name    string
	enc     func(n int) classProtocol
	classes bool
	kept    bool
}

var variantCases = []variantCase{
	{"RR1+prio", func(n int) classProtocol { return newEncPriorityRR(n, RRIgnoreWithinClass) }, true, true},
	{"RR1+prio/rr", func(n int) classProtocol { return newEncPriorityRR(n, RRWithinClass) }, true, true},
	{"FCFS1+prio/overflow", func(n int) classProtocol { return newEncPriorityFCFS1(n, CounterOverflow) }, true, true},
	{"FCFS1+prio/matched", func(n int) classProtocol { return newEncPriorityFCFS1(n, CounterMatched) }, true, true},
	{"FCFS2+prio", func(n int) classProtocol { return newEncPriorityFCFS2(n) }, true, true},
	{"Hybrid", func(n int) classProtocol { return newEncHybrid(n) }, false, true},
	// A spent ticket's age kept growing where Arrivals freezes the
	// counter at service start, so the two differ on kept lines
	// (TestTicketKeptLineCompetesFrozen).
	{"Ticket", func(n int) classProtocol { return newEncTicket(n) }, false, false},
}

// registersDiffer reports where the registers the test compares
// beside the winners differ: every agent's FCFS1+prio counter, the
// overflow count, and the ticket dispenses.
func registersDiffer(got Protocol, want classProtocol, n int) string {
	switch g := got.(type) {
	case *PriorityFCFS1:
		e := want.(*encPriorityFCFS1)
		if g.Overflows() != e.overflows {
			return fmt.Sprintf("Overflows %d, encoder %d", g.Overflows(), e.overflows)
		}
		for id := 1; id <= n; id++ {
			if g.Counter(id) != e.counter[id] {
				return fmt.Sprintf("Counter(%d) = %d, encoder %d", id, g.Counter(id), e.counter[id])
			}
		}
	case *TicketFCFS:
		if e := want.(*encTicket); g.TicketCycles != e.TicketCycles {
			return fmt.Sprintf("TicketCycles %d, encoder %d", g.TicketCycles, e.TicketCycles)
		}
	}
	return ""
}

// driveVariant runs one random history through a registered variant
// and its encoder side by side and fails at the first step where the
// winners or the registers differ. A step is a request by an agent
// without one (urgent a third of the time when the case has classes;
// a quarter of them at the previous request's instant, so windows and
// pulses are shared) or an arbitration over the lines, whose winner
// then starts service; with kept lines, a third of the winners keep
// their line up.
func driveVariant(t *testing.T, c variantCase, n, steps int, src *rng.Source) {
	t.Helper()
	f, err := ByName(c.name)
	if err != nil {
		t.Fatal(err)
	}
	p := f(n)
	var got classProtocol = classBlind{p}
	if cp, ok := p.(ClassRequester); ok {
		got = cp
	}
	want := c.enc(n)
	lines := bitarb.NewVec(n)
	requesting := make([]bool, n+1)
	now := 0.0
	var history []string
	for step := 0; step < steps; step++ {
		if src.Intn(2) == 0 {
			id := 1 + src.Intn(n)
			if requesting[id] {
				continue
			}
			if src.Intn(4) != 0 {
				now += 0.25 + src.Float64()
			}
			urgent := c.classes && src.Intn(3) == 0
			requesting[id] = true
			lines.Set(id)
			got.OnClassRequest(id, now, urgent)
			want.OnClassRequest(id, now, urgent)
			mark := ""
			if urgent {
				mark = "!"
			}
			history = append(history, fmt.Sprintf("r%d%s@%g", id, mark, now))
		} else {
			if !lines.Any() {
				continue
			}
			a, b := got.Arbitrate(lines), want.Arbitrate(lines)
			if a != b {
				t.Fatalf("%s n=%d step %d over %v: %+v, encoder %+v; history %v",
					c.name, n, step, lines.AppendIDs(nil), a, b, history)
			}
			w := a.Winner
			requesting[w] = false
			if !c.kept || src.Intn(3) != 0 {
				lines.Clear(w)
			}
			got.OnServiceStart(w, now)
			want.OnServiceStart(w, now)
			history = append(history, fmt.Sprintf("g%d", w))
		}
		if d := registersDiffer(p, want, n); d != "" {
			t.Fatalf("%s n=%d step %d: %s; history %v", c.name, n, step, d, history)
		}
	}
}

// TestVariantsMatchEncoders holds each variant rebuilt on its base
// protocol's state to the per-competitor encoder it replaced: random
// histories with shared instants, urgent requests for the class-aware
// names and lines kept up past service start, at every word-boundary
// shape. After every step the winners, every FCFS1+prio counter, the
// overflow count and the ticket dispenses agree.
func TestVariantsMatchEncoders(t *testing.T) {
	for _, c := range variantCases {
		t.Run(c.name, func(t *testing.T) {
			for _, n := range []int{1, 2, 5, 63, 64, 65, 130, 1024} {
				steps := 4000
				if n == 1024 {
					steps = 1500
				}
				for seed := uint64(0); seed < 4; seed++ {
					driveVariant(t, c, n, steps, rng.New(seed*1031+uint64(n)))
				}
			}
		})
	}
}
