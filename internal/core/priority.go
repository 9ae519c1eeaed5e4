package core

import (
	"fmt"
	"sort"

	"busarb/internal/bitarb"
	"busarb/internal/ident"
)

// Priority-request integration (§2.4, §3.1, §3.2): an extra line carries
// a most-significant "urgent" bit, so all urgent requests win over all
// non-urgent ones; fairness scheduling continues underneath (and,
// optionally, within the urgent class).

// ClassRequester is implemented by protocols that distinguish urgent
// from non-urgent requests. The plain Protocol.OnRequest is equivalent
// to OnClassRequest with urgent=false.
type ClassRequester interface {
	Protocol
	// OnClassRequest records a request of the given class.
	OnClassRequest(id int, now float64, urgent bool)
}

// RRPriorityMode selects how urgent requests interact with the
// round-robin bit in PriorityRR (§3.1, first implementation).
type RRPriorityMode int

const (
	// RRIgnoreWithinClass: agents "ignore the round-robin protocol for
	// priority requests by always setting the round-robin priority bit
	// to 1 for these requests" — urgent requests are served in fixed
	// static-priority order.
	RRIgnoreWithinClass RRPriorityMode = iota
	// RRWithinClass: agents follow the protocol, implementing
	// round-robin scheduling within the priority class too.
	RRWithinClass
)

// PriorityRR is RR1 with the priority line: the arbitration number is
// [ priority bit | round-robin bit | static ID ].
type PriorityRR struct {
	n          int
	layout     ident.Layout
	mode       RRPriorityMode
	lastWinner int
	urgent     []bool
}

// NewPriorityRR returns RR1 with priority integration for n agents.
func NewPriorityRR(n int, mode RRPriorityMode) *PriorityRR {
	return &PriorityRR{
		n:      n,
		layout: ident.Layout{StaticBits: ident.Width(n), RRBit: true, PriorityBit: true},
		mode:   mode,
		urgent: make([]bool, n+1),
	}
}

// Name implements Protocol.
func (p *PriorityRR) Name() string {
	if p.mode == RRWithinClass {
		return "RR1+prio/rr"
	}
	return "RR1+prio"
}

// N implements Protocol.
func (p *PriorityRR) N() int { return p.n }

// OnRequest implements Protocol (non-urgent).
func (p *PriorityRR) OnRequest(id int, now float64) { p.OnClassRequest(id, now, false) }

// OnClassRequest implements ClassRequester.
func (p *PriorityRR) OnClassRequest(id int, _ float64, urgent bool) { p.urgent[id] = urgent }

// OnServiceStart implements Protocol.
func (p *PriorityRR) OnServiceStart(id int, _ float64) { p.urgent[id] = false }

// Arbitrate implements Protocol.
func (p *PriorityRR) Arbitrate(waiting *bitarb.Vec) Outcome {
	w := contend(waiting, func(id int) (uint64, bool) {
		rr := id < p.lastWinner
		if p.urgent[id] && p.mode == RRIgnoreWithinClass {
			rr = true
		}
		return p.layout.Encode(ident.Number{Static: id, RR: rr, Priority: p.urgent[id]}), true
	})
	// Recorded winner identity excludes the priority and RR bits.
	p.lastWinner = w
	return Outcome{Winner: w}
}

// Reset implements Protocol.
func (p *PriorityRR) Reset() {
	p.lastWinner = 0
	for i := range p.urgent {
		p.urgent[i] = false
	}
}

// AppendState implements Protocol: the winner register and every
// agent's class.
func (p *PriorityRR) AppendState(dst []byte) []byte {
	return appendFlags(appendUint(dst, p.lastWinner), p.urgent)
}

// FCFSCounterPolicy selects how non-priority waiting-time counters react
// to priority traffic in PriorityFCFS1 (§3.2 discusses three options).
type FCFSCounterPolicy int

const (
	// CounterOverflow ignores the problem: the counter increments on
	// every lost arbitration and wraps modulo-2^k when priority traffic
	// pushes it past the top — "may be the right approach if the
	// likelihood of overflow is small".
	CounterOverflow FCFSCounterPolicy = iota
	// CounterMatched increments only when the winning identity's
	// priority bit matches the agent's request class, so the counter
	// exactly counts same-class service intervals and cannot overflow.
	CounterMatched
)

// PriorityFCFS1 is FCFS1 with the priority line: the arbitration number
// is [ priority bit | counter | static ID ].
type PriorityFCFS1 struct {
	n       int
	layout  ident.Layout
	policy  FCFSCounterPolicy
	modulus int
	counter []int
	urgent  []bool
	// overflows counts wrap events under CounterOverflow, so experiments
	// can report how often the hazard fires.
	overflows int64
}

// NewPriorityFCFS1 returns FCFS1 with priority integration for n agents.
func NewPriorityFCFS1(n int, policy FCFSCounterPolicy) *PriorityFCFS1 {
	bits := ident.Width(n)
	return &PriorityFCFS1{
		n:       n,
		layout:  ident.Layout{StaticBits: bits, CounterBits: bits, PriorityBit: true},
		policy:  policy,
		modulus: 1 << bits,
		counter: make([]int, n+1),
		urgent:  make([]bool, n+1),
	}
}

// Name implements Protocol.
func (p *PriorityFCFS1) Name() string {
	if p.policy == CounterMatched {
		return "FCFS1+prio/matched"
	}
	return "FCFS1+prio/overflow"
}

// N implements Protocol.
func (p *PriorityFCFS1) N() int { return p.n }

// Overflows returns how many counter wraps have occurred.
func (p *PriorityFCFS1) Overflows() int64 { return p.overflows }

// Counter returns agent id's waiting-time counter (for tests).
func (p *PriorityFCFS1) Counter(id int) int { return p.counter[id] }

// OnRequest implements Protocol (non-urgent).
func (p *PriorityFCFS1) OnRequest(id int, now float64) { p.OnClassRequest(id, now, false) }

// OnClassRequest implements ClassRequester.
func (p *PriorityFCFS1) OnClassRequest(id int, _ float64, urgent bool) {
	p.counter[id] = 0
	p.urgent[id] = urgent
}

// OnServiceStart implements Protocol.
func (p *PriorityFCFS1) OnServiceStart(id int, _ float64) { p.urgent[id] = false }

// Arbitrate implements Protocol.
func (p *PriorityFCFS1) Arbitrate(waiting *bitarb.Vec) Outcome {
	w := contend(waiting, func(id int) (uint64, bool) {
		return p.layout.Encode(ident.Number{
			Static:   id,
			Counter:  p.counter[id],
			Priority: p.urgent[id],
		}), true
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

// Reset implements Protocol.
func (p *PriorityFCFS1) Reset() {
	for i := range p.counter {
		p.counter[i] = 0
		p.urgent[i] = false
	}
	p.overflows = 0
}

// AppendState implements Protocol: every agent's counter and class.
// The overflow count is a statistic.
func (p *PriorityFCFS1) AppendState(dst []byte) []byte {
	return appendFlags(appendInts(dst, p.counter), p.urgent)
}

// PriorityFCFS2 is FCFS2 with two increment lines, a-incr and
// a-incr-priority (§3.2, third option): a waiting agent increments its
// counter only when a new request of its own class arrives, so the
// counters "work as well as in the original scheme".
type PriorityFCFS2 struct {
	n       int
	layout  ident.Layout
	counter []int
	waiting []bool
	urgent  []bool
	lastT   [2]float64
	hasLast [2]bool
}

// NewPriorityFCFS2 returns FCFS2 with dual increment lines for n agents.
func NewPriorityFCFS2(n int) *PriorityFCFS2 {
	return &PriorityFCFS2{
		n:       n,
		layout:  ident.Layout{StaticBits: ident.Width(n), CounterBits: ident.Width(n), PriorityBit: true},
		counter: make([]int, n+1),
		waiting: make([]bool, n+1),
		urgent:  make([]bool, n+1),
	}
}

// Name implements Protocol.
func (p *PriorityFCFS2) Name() string { return "FCFS2+prio" }

// N implements Protocol.
func (p *PriorityFCFS2) N() int { return p.n }

// OnRequest implements Protocol (non-urgent).
func (p *PriorityFCFS2) OnRequest(id int, now float64) { p.OnClassRequest(id, now, false) }

// OnClassRequest implements ClassRequester: the request pulses the
// increment line of its class; only same-class waiters count it.
func (p *PriorityFCFS2) OnClassRequest(id int, now float64, urgent bool) {
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

// OnServiceStart implements Protocol.
func (p *PriorityFCFS2) OnServiceStart(id int, _ float64) {
	p.waiting[id] = false
	p.urgent[id] = false
}

// Arbitrate implements Protocol.
func (p *PriorityFCFS2) Arbitrate(waiting *bitarb.Vec) Outcome {
	return Outcome{Winner: contend(waiting, func(id int) (uint64, bool) {
		return p.layout.Encode(ident.Number{
			Static:   id,
			Counter:  p.counter[id],
			Priority: p.urgent[id],
		}), true
	})}
}

// Reset implements Protocol.
func (p *PriorityFCFS2) Reset() {
	for i := range p.counter {
		p.counter[i] = 0
		p.waiting[i] = false
		p.urgent[i] = false
	}
	p.hasLast = [2]bool{}
	p.lastT = [2]float64{}
}

// AppendState implements Protocol: every agent's counter, waiting flag
// and class. The times of the last pulses are timestamps.
func (p *PriorityFCFS2) AppendState(dst []byte) []byte {
	return appendFlags(appendFlags(appendInts(dst, p.counter), p.waiting), p.urgent)
}

// Registry maps protocol names to factories, for CLIs and experiment
// configuration files.
var Registry = map[string]Factory{
	"FP":     func(n int) Protocol { return NewFixedPriority(n) },
	"RR1":    func(n int) Protocol { return NewRR1(n) },
	"RR2":    func(n int) Protocol { return NewRR2(n) },
	"RR3":    func(n int) Protocol { return NewRR3(n) },
	"FCFS1":  func(n int) Protocol { return NewFCFS1(n) },
	"FCFS2":  func(n int) Protocol { return NewFCFS2(n) },
	"AAP1":   func(n int) Protocol { return NewAAP1(n) },
	"AAP2":   func(n int) Protocol { return NewAAP2(n) },
	"Hybrid": func(n int) Protocol { return NewHybrid(n) },
	// Priority-integrated variants (§2.4, §3.1, §3.2), registered under
	// their Name() strings.
	"RR1+prio":            func(n int) Protocol { return NewPriorityRR(n, RRIgnoreWithinClass) },
	"RR1+prio/rr":         func(n int) Protocol { return NewPriorityRR(n, RRWithinClass) },
	"FCFS1+prio/overflow": func(n int) Protocol { return NewPriorityFCFS1(n, CounterOverflow) },
	"FCFS1+prio/matched":  func(n int) Protocol { return NewPriorityFCFS1(n, CounterMatched) },
	"FCFS2+prio":          func(n int) Protocol { return NewPriorityFCFS2(n) },
}

// ByName returns the factory registered under name, or an error
// naming the valid choices.
func ByName(name string) (Factory, error) {
	f, ok := Registry[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown protocol %q (have %v)", name, Names())
	}
	return f, nil
}

// Names returns all registered protocol names, sorted.
func Names() []string {
	out := make([]string, 0, len(Registry))
	for k := range Registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
