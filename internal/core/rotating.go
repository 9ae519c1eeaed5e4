package core

import (
	"fmt"

	"busarb/internal/bitarb"
)

// RotatingRR is the prior-art round-robin scheme the paper's §3.1
// improves on: round-robin "implemented using a dynamic assignment of
// arbitration numbers". Each agent derives its arbitration number for
// the next arbitration by rotating its static identity around its own
// record of the previous winner. The paper calls this "less robust and
// more complex to implement than schemes that are based on static
// identities" — and this implementation makes the fragility concrete:
//
//   - The winning number on the bus is a *dynamic* number; each agent
//     decodes it back to a winner using its own rotation base. An agent
//     whose base is wrong decodes the wrong winner, so a single
//     corrupted register desynchronizes that agent forever (there is no
//     authoritative static identity on the lines to resynchronize from).
//   - Two desynchronized agents can apply the *same* dynamic number; at
//     the electrical level both would match the settled lines and both
//     would claim mastership. Collisions counts those events (the model
//     resolves them toward the lower static identity to keep running).
//
// Contrast RR1: the lines carry the winner's static identity, so every
// agent's register is rewritten with ground truth at each arbitration
// and any corruption heals in one cycle (see the robustness tests).
//
// A grant visits every competitor and every agent's base: diverged
// bases are what the robustness study measures, so each agent keeps
// its own. While the bases agree the scheme is RR1's split, but a
// shared-base fast path would be a second code path that no benchmark
// workload runs.
type RotatingRR struct {
	n int
	// base[a] is agent a's private belief about the previous winner's
	// static identity; all equal in a healthy system.
	base []int
	// Collisions counts arbitrations in which two or more agents
	// applied the same winning dynamic number.
	Collisions int64
}

// NewRotatingRR builds the dynamic-identity round-robin for n agents.
func NewRotatingRR(n int) *RotatingRR {
	b := make([]int, n+1)
	for i := range b {
		b[i] = n // initial agreed base: scan starts at N-1 ... wraps
	}
	return &RotatingRR{n: n, base: b}
}

// Name implements Protocol.
func (p *RotatingRR) Name() string { return "RotRR" }

// N implements Protocol.
func (p *RotatingRR) N() int { return p.n }

// Base returns agent id's rotation base (for tests).
func (p *RotatingRR) Base(id int) int { return p.base[id] }

// Corrupt overwrites agent id's rotation base, modeling a transient
// error or an agent that missed an arbitration (fault injection).
func (p *RotatingRR) Corrupt(id, base int) { p.base[id] = base }

// dyn computes the dynamic arbitration number agent id applies given
// rotation base j: the RR scan j-1 > j-2 > ... > 1 > N > ... > j mapped
// onto N > N-1 > ... > 1.
func (p *RotatingRR) dyn(id, j int) int {
	pos := (j - 1 - id + p.n) % p.n // 0 for the scan's head (j-1)
	if pos < 0 {
		pos += p.n
	}
	return p.n - pos
}

// undyn inverts dyn for a given base: which static identity does a
// winning dynamic number correspond to, in this agent's view?
func (p *RotatingRR) undyn(d, j int) int {
	pos := p.n - d
	id := (j - 1 - pos) % p.n
	if id <= 0 {
		id += p.n
	}
	return id
}

// OnRequest implements Protocol.
func (p *RotatingRR) OnRequest(int, float64) {}

// OnServiceStart implements Protocol.
func (p *RotatingRR) OnServiceStart(int, float64) {}

// Arbitrate implements Protocol.
func (p *RotatingRR) Arbitrate(waiting *bitarb.Vec) Outcome {
	// Each competitor applies its dynamic number computed from its own
	// base; the lines settle to the maximum.
	best, bestID, dup := -1, 0, false
	for id := waiting.Max(); id > 0; id = waiting.MaxBelow(id) {
		d := p.dyn(id, p.base[id])
		switch {
		case d > best:
			best, bestID, dup = d, id, false
		case d == best:
			// Two agents applied the same winning number: electrical
			// collision. Resolve toward the lower static identity (a
			// deterministic stand-in for undefined hardware behavior).
			dup = true
			if id < bestID {
				bestID = id
			}
		}
	}
	if dup {
		p.Collisions++
	}
	// Every agent decodes the winning dynamic number through its own
	// base and records the result as the new base. Desynchronized
	// agents decode the wrong winner and stay desynchronized.
	for a := 1; a <= p.n; a++ {
		p.base[a] = p.undyn(best, p.base[a])
	}
	return Outcome{Winner: bestID}
}

// Reset implements Protocol.
func (p *RotatingRR) Reset() {
	for i := range p.base {
		p.base[i] = p.n
	}
	p.Collisions = 0
}

// AppendState implements Protocol: every agent's rotation base. The
// collision count is a statistic.
func (p *RotatingRR) AppendState(dst []byte) []byte { return appendInts(dst, p.base) }

var _ Protocol = (*RotatingRR)(nil)

func init() {
	Registry["RotRR"] = func(n int) Protocol { return NewRotatingRR(n) }
}

// String formats the agent's view for debugging.
func (p *RotatingRR) String() string {
	return fmt.Sprintf("RotRR(n=%d, collisions=%d)", p.n, p.Collisions)
}
