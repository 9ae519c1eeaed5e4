package core

import (
	"busarb/internal/bitarb"
	"busarb/internal/ident"
)

// The distributed round-robin protocol (§3.1). The scheduling rule,
// common to all three implementations: if agent j won the previous
// arbitration, the next arbitration scans identities j-1 down to 1, then
// N down to j. The maximum-finding arbitration realizes this scan when
// agents with identities below the previous winner are given priority
// over the rest.
//
// All three implementations are provided because the paper discusses
// their different line costs and timing; they produce identical grant
// sequences (asserted by tests against each other and against the
// central round-robin oracle).

// RR1 is the first implementation: one extra bus line, the round-robin
// priority bit, treated as the most significant bit of the arbitration
// number. An agent sets the bit when its static identity is smaller than
// the recorded identity of the previous winner. The per-agent logic is a
// register (last winner) and a comparator.
type RR1 struct {
	n          int
	layout     ident.Layout
	lastWinner int
}

// NewRR1 returns the round-robin-priority-bit implementation for n
// agents. The recorded winner starts at 0, so the first arbitration
// degenerates to fixed priority — exactly what hardware with a cleared
// winner register would do.
func NewRR1(n int) *RR1 {
	return &RR1{n: n, layout: ident.Layout{StaticBits: ident.Width(n), RRBit: true}}
}

// Name implements Protocol.
func (p *RR1) Name() string { return "RR1" }

// N implements Protocol.
func (p *RR1) N() int { return p.n }

// LastWinner returns the recorded identity of the most recent winner
// (every agent on the bus can observe this, §2.1).
func (p *RR1) LastWinner() int { return p.lastWinner }

// OnRequest implements Protocol.
func (p *RR1) OnRequest(int, float64) {}

// OnServiceStart implements Protocol.
func (p *RR1) OnServiceStart(int, float64) {}

// Arbitrate implements Protocol. The RR bit is the number's MSB, so
// agents below the previous winner outrank everyone else: the settled
// maximum is the largest waiting identity strictly below lastWinner,
// falling back to the overall largest — the thermometer split of the
// kernel (bitarb.Vec.MaxBelow), with no encode pass.
func (p *RR1) Arbitrate(waiting *bitarb.Vec) Outcome {
	w := waiting.MaxBelow(p.lastWinner)
	if w < 0 {
		w = waiting.Max()
	}
	// Each agent records the winner's identity, excluding the RR bit.
	p.lastWinner = w
	return Outcome{Winner: w}
}

// Reset implements Protocol.
func (p *RR1) Reset() { p.lastWinner = 0 }

// RR2 is the second implementation: the extra line is a shared
// "low-request" line instead. An agent requesting the bus asserts
// low-request if its identity is below the previous winner's; when
// low-request is high at the start of an arbitration, only such agents
// compete. The grant sequence is identical to RR1's: if any low agent
// competes, the maximum low agent wins; otherwise the overall maximum
// wins.
type RR2 struct {
	n          int
	layout     ident.Layout
	lastWinner int
}

// NewRR2 returns the low-request-line implementation for n agents.
func NewRR2(n int) *RR2 {
	return &RR2{n: n, layout: ident.LayoutFor(n)}
}

// Name implements Protocol.
func (p *RR2) Name() string { return "RR2" }

// N implements Protocol.
func (p *RR2) N() int { return p.n }

// LastWinner returns the recorded identity of the most recent winner.
func (p *RR2) LastWinner() int { return p.lastWinner }

// OnRequest implements Protocol.
func (p *RR2) OnRequest(int, float64) {}

// OnServiceStart implements Protocol.
func (p *RR2) OnServiceStart(int, float64) {}

// Arbitrate implements Protocol. The low-request line restricts the
// competition to identities below the previous winner when any such
// agent waits; the winner is therefore the same thermometer split as
// RR1's — the largest waiting identity below lastWinner, else the
// overall largest (identical grant sequences, as the paper notes).
func (p *RR2) Arbitrate(waiting *bitarb.Vec) Outcome {
	w := waiting.MaxBelow(p.lastWinner)
	if w < 0 {
		w = waiting.Max()
	}
	p.lastWinner = w
	return Outcome{Winner: w}
}

// Reset implements Protocol.
func (p *RR2) Reset() { p.lastWinner = 0 }

// RR3 is the third implementation: no extra line. Only agents with
// identities below the previous winner compete; a winning identity of
// zero (nobody competed) makes every agent record N+1 as the winner and
// a new arbitration starts immediately, in which no agent is inhibited.
// This costs an occasional extra arbitration pass — the paper calls it
// "somewhat less efficient" — which the simulator charges for.
type RR3 struct {
	n          int
	layout     ident.Layout
	lastWinner int
}

// NewRR3 returns the no-extra-line implementation for n agents. The
// winner register starts at 0, so the very first arbitration is an empty
// pass that resets it to N+1; hardware coming out of reset does the same.
func NewRR3(n int) *RR3 {
	return &RR3{n: n, layout: ident.LayoutFor(n)}
}

// Name implements Protocol.
func (p *RR3) Name() string { return "RR3" }

// N implements Protocol.
func (p *RR3) N() int { return p.n }

// LastWinner returns the recorded identity of the most recent winner
// (N+1 immediately after an empty pass).
func (p *RR3) LastWinner() int { return p.lastWinner }

// OnRequest implements Protocol.
func (p *RR3) OnRequest(int, float64) {}

// OnServiceStart implements Protocol.
func (p *RR3) OnServiceStart(int, float64) {}

// Arbitrate implements Protocol. Only identities below lastWinner
// compete, so the settled maximum is the thermometer split alone; an
// empty segment is the empty pass.
func (p *RR3) Arbitrate(waiting *bitarb.Vec) Outcome {
	w := waiting.MaxBelow(p.lastWinner)
	if w < 0 {
		// Winning identity zero: no agent participated. Record N+1 and
		// rerun (§3.1, third implementation).
		p.lastWinner = p.n + 1
		return Outcome{Repass: true}
	}
	p.lastWinner = w
	return Outcome{Winner: w}
}

// Reset implements Protocol.
func (p *RR3) Reset() { p.lastWinner = 0 }
