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
	n     int
	cbits int
	// The counters follow from the order in which agents joined the
	// request lines (bitarb.Arrivals, as FCFS2's follow from a-incr
	// pulses): agents that first request together share a window, and
	// every lost arbitration is one pulse, so the lose step costs
	// O(words) plus O(1) per newcomer instead of touching every counter.
	ctr bitarb.Arrivals
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
	p := &FCFS1{n: n, cbits: counterBits}
	bitarb.InitArrivals(counterBits, n, []*bitarb.Arrivals{&p.ctr})
	return p
}

// Name implements Protocol.
func (p *FCFS1) Name() string {
	if p.cbits == ident.Width(p.n) {
		return "FCFS1"
	}
	return fmt.Sprintf("FCFS1/%db", p.cbits)
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
// static identity) lexicographically, so the winner is the (counter,
// identity) maximum over the request lines (MaxIn, ties toward the
// higher identity). The lines first become the counting set: agents
// requesting for the first time since their counter was zeroed join
// at 0, together. Then every agent on the lines loses one arbitration
// (one Tick, saturating at the field's maximum) and the winner's
// counter resets, so counting it too changes nothing.
func (p *FCFS1) Arbitrate(waiting *bitarb.Vec) Outcome {
	p.ctr.Follow(waiting)
	w := p.ctr.MaxIn(waiting)
	p.ctr.Tick(false)
	p.ctr.Zero(w)
	return Outcome{Winner: w}
}

// Reset implements Protocol.
func (p *FCFS1) Reset() { p.ctr.Reset() }

// AppendState implements Protocol: every agent's counter.
func (p *FCFS1) AppendState(dst []byte) []byte { return appendCounters(dst, &p.ctr, p.n) }

// appendCounters appends the counter of each identity 1..n, the stale
// one of an agent that does not wait included: the counter registers
// of both FCFS variants. With the waiting set they decide every
// winner, so Arrivals' arrival order is left out.
func appendCounters(dst []byte, c *bitarb.Arrivals, n int) []byte {
	for id := 1; id <= n; id++ {
		dst = appendUint(dst, c.Get(id))
	}
	return dst
}

// FCFS2 is the more accurate counting strategy: an extra wired-OR line,
// a-incr, is pulsed by an agent when it generates a new request, and
// every waiting agent increments its counter on each pulse. The counter
// then counts the requests that arrived after this one, so the
// arbitration implements arrival-order service exactly, up to requests
// arriving within one a-incr propagation window (§3.2). In this
// continuous-time model, only requests arriving at the identical instant
// share a counter value.
type FCFS2 struct {
	n int
	// The counters follow from arrival order (bitarb.Arrivals): a pulse
	// is O(1) amortized and the winner is read off the oldest arrivals,
	// where hardware increments every counter in parallel.
	ctr     bitarb.Arrivals
	lastT   float64 // time of the most recent a-incr pulse
	hasLast bool
}

// NewFCFS2 returns the a-incr FCFS implementation for n agents. The
// counter needs only ceil(log2 N) bits: at most N-1 requests can arrive
// while an agent waits (each other agent can contribute at most one
// pulse that precedes this agent's grant).
func NewFCFS2(n int) *FCFS2 {
	p := &FCFS2{n: n}
	bitarb.InitArrivals(ident.Width(n), n, []*bitarb.Arrivals{&p.ctr})
	return p
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
// share counter values.
func (p *FCFS2) OnRequest(id int, now float64) {
	p.ctr.Pulse(id, p.hasLast && now == p.lastT)
	p.lastT, p.hasLast = now, true
}

// OnServiceStart implements Protocol.
func (p *FCFS2) OnServiceStart(id int, _ float64) { p.ctr.Leave(id) }

// Arbitrate implements Protocol: the (counter, identity) maximum, as
// FCFS1's; the counters only move on a-incr pulses.
func (p *FCFS2) Arbitrate(waiting *bitarb.Vec) Outcome {
	return Outcome{Winner: p.ctr.MaxIn(waiting)}
}

// Reset implements Protocol.
func (p *FCFS2) Reset() {
	p.ctr.Reset()
	p.hasLast = false
	p.lastT = 0
}

// AppendState implements Protocol: every agent's counter. The time of
// the last pulse only matters to a request at that same instant.
func (p *FCFS2) AppendState(dst []byte) []byte { return appendCounters(dst, &p.ctr, p.n) }

// Hybrid is the §5 "further research" combination: round-robin order
// among requests that arrive in the same counting interval, FCFS across
// intervals. It is FCFS2's counter with RR1's round-robin bit below it:
// the counter dominates (FCFS between intervals); within a counter tie
// the RR bit implements the round-robin scan instead of fixed priority.
// So it is FCFS2 plus RR1's winner register, and a grant is MaxInRR
// over FCFS2's counters.
type Hybrid struct {
	FCFS2
	lastWinner int
}

// NewHybrid returns the hybrid protocol for n agents.
func NewHybrid(n int) *Hybrid {
	p := &Hybrid{FCFS2: FCFS2{n: n}}
	bitarb.InitArrivals(ident.Width(n), n, []*bitarb.Arrivals{&p.ctr})
	return p
}

// Name implements Protocol.
func (p *Hybrid) Name() string { return "Hybrid" }

// Arbitrate implements Protocol.
func (p *Hybrid) Arbitrate(waiting *bitarb.Vec) Outcome {
	w := p.ctr.MaxInRR(waiting, p.lastWinner)
	p.lastWinner = w
	return Outcome{Winner: w}
}

// Reset implements Protocol.
func (p *Hybrid) Reset() {
	p.FCFS2.Reset()
	p.lastWinner = 0
}

// AppendState implements Protocol: the winner register, then every
// agent's counter.
func (p *Hybrid) AppendState(dst []byte) []byte {
	return p.FCFS2.AppendState(appendUint(dst, p.lastWinner))
}
