// Package grant is the serving side of one bus: the request lines and
// the clock an arbd resource arbitrates over, driving a core.Protocol
// (a flat protocol or a topo.Tree) with the simulators' calling
// convention. It holds no protocol logic — each protocol exists once,
// in internal/core — only the bookkeeping of when to call it.
//
// Assert raises an agent's request line and calls OnRequest; Resolve
// calls Arbitrate over the lines, re-running it after each RR3 empty
// pass, drops the winner's line and calls OnServiceStart. The clock
// (the pulse) advances once per assert and once per grant: wall-clock
// arrivals are never simultaneous, so no two requests share FCFS2's
// a-incr sensing window. A Bus is single-goroutine like the protocol
// it drives (the owner is one shard loop), and Assert and Resolve
// allocate nothing.
package grant

import (
	"busarb/internal/bitarb"
	"busarb/internal/core"
)

// Bus is one resource's request lines and clock.
type Bus struct {
	proto   core.Protocol
	lines   bitarb.Vec
	pending int
	pulse   float64
}

// New returns an idle bus over p's agents 1..p.N().
func New(p core.Protocol) *Bus {
	b := &Bus{proto: p}
	bitarb.InitVecs(p.N(), &b.lines)
	return b
}

// Assert raises agent's request line and reports whether it was newly
// raised. A line already up is left alone: one outstanding request per
// agent, the paper's model — callers queue further requests behind the
// line. Assert panics on an agent outside 1..N.
func (b *Bus) Assert(agent int) bool {
	if b.lines.Test(agent) {
		return false
	}
	b.lines.Set(agent)
	b.pending++
	b.pulse++
	b.proto.OnRequest(agent, b.pulse)
	return true
}

// Resolve runs one arbitration among the asserted lines, re-running it
// after each RR3 empty pass, and grants the winner: its line drops as
// it assumes mastership. It returns the winner and the number of empty
// passes, which the caller reports; with no line asserted — the idle
// bus, where no arbitration starts — it returns 0 and charges nothing.
func (b *Bus) Resolve() (winner, repasses int) {
	if b.pending == 0 {
		return 0, 0
	}
	out := b.proto.Arbitrate(&b.lines)
	for out.Repass {
		repasses++
		out = b.proto.Arbitrate(&b.lines)
	}
	b.lines.Clear(out.Winner)
	b.pending--
	b.pulse++
	b.proto.OnServiceStart(out.Winner, b.pulse)
	return out.Winner, repasses
}

// Pending returns the number of asserted request lines.
func (b *Bus) Pending() int { return b.pending }
