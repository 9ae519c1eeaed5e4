// Package core implements the paper's primary contribution — the
// distributed round-robin (RR) and first-come first-serve (FCFS) bus
// arbitration protocols of Vernon & Manber (ISCA 1988, §3) — together
// with the protocols they are compared against: the fixed-priority
// parallel contention arbiter and the two "assured access" fairness
// protocols of the 1980s bus standards (§2.2).
//
// All protocols are expressed against one abstraction: at each
// arbitration, every competing agent applies a composite arbitration
// number (package ident) and the bus's maximum-finding mechanism
// (package contention) selects the largest. A protocol is therefore just
// (a) a rule for which waiting agents compete, and (b) a rule for the
// dynamic fields of each competitor's arbitration number.
//
// Agent identities are 1..N (identity 0 is reserved, §2.1).
package core

import (
	"busarb/internal/bitarb"
	"busarb/internal/ident"
)

// Outcome is the result of one arbitration pass.
type Outcome struct {
	// Winner is the identity of the agent granted the bus, or 0 if the
	// pass selected no one.
	Winner int
	// Repass reports that the arbitration was empty and must be run
	// again immediately (RR3's "winning identity of zero" case, §3.1).
	// The caller charges a second arbitration delay for it.
	Repass bool
}

// Protocol is the scheduling logic layered over the parallel contention
// arbiter. Implementations are single-threaded by design: the simulator
// owns one instance per bus.
//
// The simulator calls OnRequest when an agent asserts the shared bus
// request line, Arbitrate with the request lines of all agents with
// outstanding requests when an arbitration resolves, and
// OnServiceStart when the winner assumes bus mastership.
type Protocol interface {
	// Name returns the protocol's short name ("RR1", "FCFS2", ...).
	Name() string
	// N returns the number of agents the instance was built for.
	N() int
	// OnRequest records that agent id generated a request at time now.
	OnRequest(id int, now float64)
	// OnServiceStart records that agent id became bus master at now.
	OnServiceStart(id int, now float64)
	// Arbitrate selects the next bus master among the waiting agents.
	// waiting holds one bit per request line, as a hardware arbiter
	// takes them: it is never empty, is sized N, and is read-only to
	// the protocol. Implementations do not scan it to validate, so a
	// resolve over thousands of agents stays O(words).
	Arbitrate(waiting *bitarb.Vec) Outcome
	// Reset restores initial state.
	Reset()
}

// Factory builds a protocol instance for an n-agent bus.
type Factory func(n int) Protocol

// contend runs one contention pass among the waiting agents: every
// competitor applies its arbitration number and the largest wins — the
// settled maximum of §2.1, which package contention verifies the
// wired-OR lines compute. number returns an agent's arbitration number
// and whether it competes at all. contend returns the winner, or 0 if
// nobody competed. The numbers embed distinct static identities, so
// the maximum is unique and the visiting order (highest identity
// first) cannot change it.
func contend(waiting *bitarb.Vec, number func(id int) (uint64, bool)) int {
	winner, best := 0, uint64(0)
	for id := waiting.Max(); id > 0; id = waiting.MaxBelow(id) {
		if v, ok := number(id); ok && (winner == 0 || v > best) {
			winner, best = id, v
		}
	}
	return winner
}

// ---------------------------------------------------------------------
// Fixed priority (the raw parallel contention arbiter, §2.1).

// FixedPriority grants the bus to the highest static identity among the
// competitors. It is maximally unfair under load and exists as the
// baseline the assured access protocols (and the paper's protocols) fix.
type FixedPriority struct {
	n      int
	layout ident.Layout
}

// NewFixedPriority returns a fixed-priority protocol for n agents.
func NewFixedPriority(n int) *FixedPriority {
	return &FixedPriority{n: n, layout: ident.LayoutFor(n)}
}

// Name implements Protocol.
func (p *FixedPriority) Name() string { return "FP" }

// N implements Protocol.
func (p *FixedPriority) N() int { return p.n }

// OnRequest implements Protocol.
func (p *FixedPriority) OnRequest(int, float64) {}

// OnServiceStart implements Protocol.
func (p *FixedPriority) OnServiceStart(int, float64) {}

// Arbitrate implements Protocol. The composite number is the static
// identity alone, so the settled maximum is the highest asserted
// request line. No encode pass is needed; this is the kernel
// specialization of the contention maximum for the fixed-priority
// layout.
func (p *FixedPriority) Arbitrate(waiting *bitarb.Vec) Outcome {
	return Outcome{Winner: waiting.Max()}
}

// Reset implements Protocol.
func (p *FixedPriority) Reset() {}
