package core

import (
	"fmt"

	"busarb/internal/bitarb"
	"busarb/internal/ident"
)

// The distributed first-come first-serve protocol (§3.2). Each agent's
// arbitration number is the concatenation of a waiting-time counter
// (most significant) and its static identity (least significant). The
// counter is zeroed when a new request is generated and incremented on
// predefined global events while the request waits; the maximum-finding
// arbitration then favors the longest-waiting request. Two requests
// falling in the same counting interval are served in static-identity
// order — the source of the protocol's (small) residual unfairness,
// quantified in Table 4.1.

// FCFS1 is the simpler counting strategy: the counter is incremented
// each time the agent loses an arbitration, and reset on a win. With at
// most one outstanding request per agent the counter never exceeds N-1
// (a winner resets to 0 and can never again pass a still-waiting agent,
// because the counter is the number's most significant field), so a
// counter of ceil(log2 N) bits suffices (§3.2). At that width the
// saturation guard below never engages — the counter value is identical
// to an unbounded one, which TestFCFS1CounterBound pins against a
// central unbounded-counter oracle. Narrower counters saturate rather
// than wrap: §3.2's "allow the counter to overflow" (a modular counter)
// would rank a long-waiting agent behind a fresh request the moment its
// count wraps to 0, inverting the service order (see
// TestFCFS1NarrowCounterSaturationPreservesSeniority).
type FCFS1 struct {
	n       int
	layout  ident.Layout
	modulus int
	// The counters live as kernel bit-planes (bitarb.Counters): the
	// per-arbitration lose increment is one word-parallel saturating
	// add over the waiting bitmap, and the winner selection is the
	// (counter, identity) plane tournament MaxIn.
	ctr *bitarb.Counters
}

// NewFCFS1 returns the lose-counting FCFS implementation for n agents.
func NewFCFS1(n int) *FCFS1 { return NewFCFS1Bits(n, ident.Width(n)) }

// NewFCFS1Bits returns FCFS1 with an explicit counter width. Narrower
// counters (the paper: "fewer bits in the dynamic portion should
// implement nearly ideal FCFS scheduling when the bus is not saturated")
// saturate instead of wrapping, since a wrapped counter would invert the
// service order; the hardware analogue is a saturating counter, which
// costs the same.
func NewFCFS1Bits(n, counterBits int) *FCFS1 {
	if counterBits < 1 {
		panic(fmt.Sprintf("core: FCFS1 needs at least 1 counter bit, got %d", counterBits))
	}
	return &FCFS1{
		n:       n,
		layout:  ident.Layout{StaticBits: ident.Width(n), CounterBits: counterBits},
		modulus: 1 << counterBits,
		ctr:     bitarb.NewCounters(counterBits, n),
	}
}

// Name implements Protocol.
func (p *FCFS1) Name() string {
	if p.modulus == 1<<ident.Width(p.n) {
		return "FCFS1"
	}
	return fmt.Sprintf("FCFS1/%db", p.layout.CounterBits)
}

// N implements Protocol.
func (p *FCFS1) N() int { return p.n }

// Counter returns agent id's current waiting-time counter (for tests).
func (p *FCFS1) Counter(id int) int { return p.ctr.Get(id) }

// OnRequest implements Protocol: a new request starts with counter 0.
func (p *FCFS1) OnRequest(id int, _ float64) { p.ctr.Zero(id) }

// OnServiceStart implements Protocol.
func (p *FCFS1) OnServiceStart(int, float64) {}

// Arbitrate implements Protocol. The composite number is (counter,
// static identity) lexicographically — exactly the kernel's counter
// bit-plane tournament (MaxIn, ties toward higher identity). The lose
// increment is one saturating word-parallel add over the request
// lines; the winner's counter is then reset, so including it in the
// add changes nothing.
func (p *FCFS1) Arbitrate(waiting *bitarb.Vec) Outcome {
	w := p.ctr.MaxIn(waiting)
	// "Lose" increments (saturating at the field's maximum); "win"
	// resets.
	p.ctr.Inc(waiting)
	p.ctr.Zero(w)
	return Outcome{Winner: w}
}

// Reset implements Protocol.
func (p *FCFS1) Reset() { p.ctr.Reset() }

// FCFS2 is the more accurate counting strategy: an extra wired-OR line,
// a-incr, is pulsed by an agent when it generates a new request, and
// every waiting agent increments its counter on each pulse. The counter
// then counts the requests that arrived after this one, so the
// arbitration implements arrival-order service exactly, up to requests
// arriving within one a-incr propagation window (§3.2). In this
// continuous-time model, only requests arriving at the identical instant
// share a counter value.
type FCFS2 struct {
	n      int
	layout ident.Layout
	// Counters as kernel bit-planes and the waiting set as a bitmap:
	// an a-incr pulse is one word-parallel saturating increment over
	// the waiting agents, O(counter bits) per 64 agents instead of a
	// per-agent scan.
	ctr     *bitarb.Counters
	wait    *bitarb.Vec
	lastT   float64 // time of the most recent a-incr pulse
	hasLast bool
}

// NewFCFS2 returns the a-incr FCFS implementation for n agents. The
// counter needs only ceil(log2 N) bits: at most N-1 requests can arrive
// while an agent waits (each other agent can contribute at most one
// pulse that precedes this agent's grant).
func NewFCFS2(n int) *FCFS2 {
	w := ident.Width(n)
	return &FCFS2{
		n:      n,
		layout: ident.Layout{StaticBits: w, CounterBits: w},
		ctr:    bitarb.NewCounters(w, n),
		wait:   bitarb.NewVec(n),
	}
}

// Name implements Protocol.
func (p *FCFS2) Name() string { return "FCFS2" }

// N implements Protocol.
func (p *FCFS2) N() int { return p.n }

// Counter returns agent id's current waiting-time counter (for tests).
func (p *FCFS2) Counter(id int) int { return p.ctr.Get(id) }

// OnRequest implements Protocol: the new requester pulses a-incr; every
// already-waiting agent increments. Requests at the identical instant
// see each other's pulse as one (they are inside the sensing window) and
// share counter values — IncExceptZero skips the counter-0 agents that
// arrived in the same window.
func (p *FCFS2) OnRequest(id int, now float64) {
	if p.hasLast && now == p.lastT {
		p.ctr.IncExceptZero(p.wait)
	} else {
		p.ctr.Inc(p.wait)
	}
	p.ctr.Zero(id)
	p.wait.Set(id)
	p.lastT, p.hasLast = now, true
}

// OnServiceStart implements Protocol.
func (p *FCFS2) OnServiceStart(id int, _ float64) { p.wait.Clear(id) }

// Arbitrate implements Protocol: the same (counter, identity) plane
// tournament as FCFS1; the counters only move on a-incr pulses.
func (p *FCFS2) Arbitrate(waiting *bitarb.Vec) Outcome {
	return Outcome{Winner: p.ctr.MaxIn(waiting)}
}

// Reset implements Protocol.
func (p *FCFS2) Reset() {
	p.ctr.Reset()
	p.wait.Reset()
	p.hasLast = false
	p.lastT = 0
}

// Hybrid is the §5 "further research" combination: round-robin order
// among requests that arrive in the same counting interval, FCFS across
// intervals. It is FCFS2's counter with RR1's round-robin bit below it:
// the counter dominates (FCFS between intervals); within a counter tie
// the RR bit implements the round-robin scan instead of fixed priority.
type Hybrid struct {
	n          int
	layout     ident.Layout
	counter    []int
	waiting    []bool
	lastWinner int
	lastT      float64
	hasLast    bool
}

// NewHybrid returns the hybrid protocol for n agents.
func NewHybrid(n int) *Hybrid {
	return &Hybrid{
		n:       n,
		layout:  ident.Layout{StaticBits: ident.Width(n), RRBit: true, CounterBits: ident.Width(n)},
		counter: make([]int, n+1),
		waiting: make([]bool, n+1),
	}
}

// Name implements Protocol.
func (p *Hybrid) Name() string { return "Hybrid" }

// N implements Protocol.
func (p *Hybrid) N() int { return p.n }

// OnRequest implements Protocol (FCFS2's a-incr counting).
func (p *Hybrid) OnRequest(id int, now float64) {
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

// OnServiceStart implements Protocol.
func (p *Hybrid) OnServiceStart(id int, _ float64) { p.waiting[id] = false }

// Arbitrate implements Protocol.
func (p *Hybrid) Arbitrate(waiting *bitarb.Vec) Outcome {
	w := contend(waiting, func(id int) (uint64, bool) {
		return p.layout.Encode(ident.Number{
			Static:  id,
			RR:      id < p.lastWinner,
			Counter: p.counter[id],
		}), true
	})
	p.lastWinner = w
	return Outcome{Winner: w}
}

// Reset implements Protocol.
func (p *Hybrid) Reset() {
	for i := range p.counter {
		p.counter[i] = 0
		p.waiting[i] = false
	}
	p.lastWinner = 0
	p.hasLast = false
	p.lastT = 0
}
