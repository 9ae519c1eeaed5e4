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
type TicketFCFS struct {
	n       int
	layout  ident.Layout
	modulus int
	next    int
	ticket  []int
	holds   []bool
	// TicketCycles counts ticket-dispense operations (one per request):
	// bus cycles a real implementation would spend beyond the paper's
	// protocols.
	TicketCycles int64
}

// NewTicketFCFS builds the ticket scheme for n agents. The ticket
// counter is 2k bits wide (k = ceil(log2(N+1))), enough to keep
// circular comparison exact for any outstanding set.
func NewTicketFCFS(n int) *TicketFCFS {
	k := ident.Width(n)
	return &TicketFCFS{
		n:       n,
		layout:  ident.Layout{StaticBits: k, CounterBits: 2 * k},
		modulus: 1 << (2 * k),
		ticket:  make([]int, n+1),
		holds:   make([]bool, n+1),
	}
}

// Name implements Protocol.
func (p *TicketFCFS) Name() string { return "Ticket" }

// N implements Protocol.
func (p *TicketFCFS) N() int { return p.n }

// OnRequest implements Protocol: the agent draws the next ticket (a
// serialized bus operation in the real scheme).
func (p *TicketFCFS) OnRequest(id int, _ float64) {
	p.ticket[id] = p.next
	p.holds[id] = true
	p.next = (p.next + 1) % p.modulus
	p.TicketCycles++
}

// OnServiceStart implements Protocol.
func (p *TicketFCFS) OnServiceStart(id int, _ float64) { p.holds[id] = false }

// Arbitrate implements Protocol: the oldest ticket wins. The agents
// map circular ticket age onto the counter field so the standard
// maximum-finding arbitration selects it (older = larger age).
func (p *TicketFCFS) Arbitrate(waiting *bitarb.Vec) Outcome {
	// Age is measured backwards from the dispenser's next value; with a
	// 2k-bit counter and at most N outstanding tickets, ages never
	// wrap ambiguously.
	return Outcome{Winner: contend(waiting, func(id int) (uint64, bool) {
		age := (p.next - p.ticket[id] + p.modulus) % p.modulus
		if age >= p.modulus {
			age = p.modulus - 1
		}
		return p.layout.Encode(ident.Number{Static: id, Counter: age % p.modulus}), true
	})}
}

// Reset implements Protocol.
func (p *TicketFCFS) Reset() {
	p.next = 0
	p.TicketCycles = 0
	for i := range p.ticket {
		p.ticket[i] = 0
		p.holds[i] = false
	}
}

func init() {
	Registry["Ticket"] = func(n int) Protocol { return NewTicketFCFS(n) }
}
