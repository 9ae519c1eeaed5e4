package core

import (
	"busarb/internal/bitarb"
	"busarb/internal/ident"
)

// TicketFCFS is the prior-art distributed FCFS the paper cites
// ([ShAh81], "A First-Come-First-Serve Bus Allocation Scheme Using
// Ticket Assignments"): a requesting agent draws a ticket from a
// bus-visible counter and the lowest outstanding ticket is served next.
//
// Tickets are taken modulo 2^k, so ordering is by circular distance
// from the oldest outstanding ticket; with fewer than 2^(k-1) requests
// outstanding the order is exact. The scheme's practical weakness —
// the reason the paper calls its own counter-based FCFS "the first
// practical proposal" — is the ticket dispenser itself: drawing a
// ticket must be serialized on the bus, costing an extra bus operation
// per request that the paper's a-incr pulse avoids. The simulator
// exposes that cost as TicketCycles for cost accounting (the scheduling
// behavior is identical to an exact FCFS queue).
//
// Only the order of the outstanding tickets decides a grant, and the
// counters of bitarb.Arrivals keep exactly that order when every
// request closes its own window: a waiting agent's counter is the
// number of tickets drawn after its own. Tickets are 2k bits wide, so
// the counters never saturate.
type TicketFCFS struct {
	n   int
	ctr bitarb.Arrivals
	// TicketCycles counts ticket-dispense operations (one per request):
	// bus cycles a real implementation would spend beyond the paper's
	// protocols.
	TicketCycles int64
}

// NewTicketFCFS builds the ticket scheme for n agents. The ticket
// counter is 2k bits wide (k = ceil(log2(N+1))), enough to keep
// circular comparison exact for any outstanding set.
func NewTicketFCFS(n int) *TicketFCFS {
	p := &TicketFCFS{n: n}
	bitarb.InitArrivals(2*ident.Width(n), n, []*bitarb.Arrivals{&p.ctr})
	return p
}

// Name implements Protocol.
func (p *TicketFCFS) Name() string { return "Ticket" }

// N implements Protocol.
func (p *TicketFCFS) N() int { return p.n }

// OnRequest implements Protocol: the agent draws the next ticket (a
// serialized bus operation in the real scheme), which ages every held
// one.
func (p *TicketFCFS) OnRequest(id int, _ float64) {
	p.ctr.Pulse(id, false)
	p.TicketCycles++
}

// OnServiceStart implements Protocol: the ticket is spent, and the
// agent's counter freezes, as FCFS2's does.
func (p *TicketFCFS) OnServiceStart(id int, _ float64) { p.ctr.Leave(id) }

// Arbitrate implements Protocol: the oldest ticket wins, the
// (counter, identity) maximum over the lines.
func (p *TicketFCFS) Arbitrate(waiting *bitarb.Vec) Outcome {
	return Outcome{Winner: p.ctr.MaxIn(waiting)}
}

// Reset implements Protocol.
func (p *TicketFCFS) Reset() {
	p.ctr.Reset()
	p.TicketCycles = 0
}

// AppendState implements Protocol: the age of every held ticket, 0
// for an agent that holds none. Only the tickets' order decides a
// grant, and the ages stay below N.
func (p *TicketFCFS) AppendState(dst []byte) []byte {
	for id := 1; id <= p.n; id++ {
		age := 0
		if p.ctr.Waits(id) {
			age = 1 + p.ctr.Get(id)
		}
		dst = appendUint(dst, age)
	}
	return dst
}

func init() {
	Registry["Ticket"] = func(n int) Protocol { return NewTicketFCFS(n) }
}
