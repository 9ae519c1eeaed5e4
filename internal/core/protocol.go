// Package core implements the paper's primary contribution — the
// distributed round-robin (RR) and first-come first-serve (FCFS) bus
// arbitration protocols of Vernon & Manber (ISCA 1988, §3) — together
// with the protocols they are compared against: the fixed-priority
// parallel contention arbiter and the two "assured access" fairness
// protocols of the 1980s bus standards (§2.2).
//
// On the bus, each competing agent applies a composite arbitration
// number (package ident) and the maximum-finding mechanism (package
// contention) selects the largest. Each protocol here computes that
// settled maximum directly from its own state and the request lines,
// in O(words) with the bitarb kernel: RR1's thermometer split
// (Vec.MaxBelow), the assured access protocols' masked maxima, and
// the FCFS counters of bitarb.Arrivals. The variants reuse their base
// protocol's state: the priority line is an urgent bitmap over RR1's
// split or the FCFS counters, the §5 hybrid is FCFS2 with RR1's
// register breaking counter ties, and tickets are Arrivals in which
// every request closes its own window. Only rotating RR and MultiFCFS
// visit each competitor, for the reasons their docs give. The
// number-level model stays in packages ident, contention and
// cyclesim, and the tests hold every protocol to it.
//
// Agent identities are 1..N (identity 0 is reserved, §2.1).
package core

import (
	"encoding/binary"
	"fmt"

	"busarb/internal/bitarb"
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
	// AppendState appends a canonical encoding of the registers that
	// decide future grants to dst and returns the extended slice. Two
	// instances of one protocol whose encodings and waiting sets are
	// equal grant identically, repasses included, under any common
	// sequence of later calls whose times all come after every time
	// either instance has seen. Statistics and timestamps are left
	// out. internal/verify keys explored states by it.
	AppendState(dst []byte) []byte
}

// Factory builds a protocol instance for an n-agent bus.
type Factory func(n int) Protocol

// Resolve arbitrates among the request lines until a pass grants,
// re-running an empty pass (RR3's, §3.1) at once: the loop of a caller
// with no arbitration delay to charge. It returns the winner and the
// empty passes. A flat RR3 repasses at most once per grant and a
// topo.Tree at most once per RR3 node, of which it has fewer than 2N,
// so a protocol that repasses more than 2N times in a row panics.
func Resolve(p Protocol, lines *bitarb.Vec) (winner, repasses int) {
	for {
		out := p.Arbitrate(lines)
		if !out.Repass {
			return out.Winner, repasses
		}
		if repasses++; repasses > 2*p.N() {
			panic(fmt.Sprintf("core: %s repassed %d times in one resolve", p.Name(), repasses))
		}
	}
}

// appendUint appends one register to a state encoding as a uvarint,
// which keeps a sequence of registers self-delimiting.
func appendUint(dst []byte, v int) []byte { return binary.AppendUvarint(dst, uint64(v)) }

// appendInts appends the per-agent registers rs[1:] (index 0 is the
// reserved identity).
func appendInts(dst []byte, rs []int) []byte {
	for _, r := range rs[1:] {
		dst = appendUint(dst, r)
	}
	return dst
}

// appendVec appends a bitmap of per-agent flags, word by word.
func appendVec(dst []byte, v *bitarb.Vec) []byte {
	for _, w := range v.Words() {
		dst = binary.AppendUvarint(dst, w)
	}
	return dst
}

// ---------------------------------------------------------------------
// Fixed priority (the raw parallel contention arbiter, §2.1).

// FixedPriority grants the bus to the highest static identity among the
// competitors. It is maximally unfair under load and exists as the
// baseline the assured access protocols (and the paper's protocols) fix.
type FixedPriority struct {
	n int
}

// NewFixedPriority returns a fixed-priority protocol for n agents.
func NewFixedPriority(n int) *FixedPriority {
	return &FixedPriority{n: n}
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

// AppendState implements Protocol: fixed priority keeps no state.
func (p *FixedPriority) AppendState(dst []byte) []byte { return dst }
