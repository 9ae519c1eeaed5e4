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

// classLines are the agents' urgent lines: a bitmap beside the request
// lines, and scratch for the urgent part of them.
type classLines struct{ urgent, cand bitarb.Vec }

// set raises or drops agent id's urgent line.
func (c *classLines) set(id int, urgent bool) {
	if urgent {
		c.urgent.Set(id)
	} else {
		c.urgent.Clear(id)
	}
}

// class is 1 for an agent whose urgent line is up, else 0.
func (c *classLines) class(id int) int {
	if c.urgent.Test(id) {
		return 1
	}
	return 0
}

// pick returns the lines a pass arbitrates among, the urgent ones if
// any is up and else all of them, and the winner's class: the priority
// bit, most significant in every number.
func (c *classLines) pick(waiting *bitarb.Vec) (*bitarb.Vec, int) {
	if waiting.MaxAnd(&c.urgent) < 0 {
		return waiting, 0
	}
	c.cand.And(waiting, &c.urgent)
	return &c.cand, 1
}

// appendCounters appends every agent's counter, read from the bank of
// its class, then the urgent lines.
func (c *classLines) appendCounters(dst []byte, bank [2]*bitarb.Arrivals) []byte {
	for id := 1; id <= c.urgent.N(); id++ {
		dst = appendUint(dst, bank[c.class(id)].Get(id))
	}
	return appendVec(dst, &c.urgent)
}

// PriorityRR is RR1 with the priority line: the arbitration number is
// [ priority bit | round-robin bit | static ID ]. RR1's split runs over
// the urgent lines if any is up, else over all of them; in
// RRIgnoreWithinClass mode every urgent agent sets the RR bit, so the
// highest urgent identity wins instead.
type PriorityRR struct {
	rr   RR1
	mode RRPriorityMode
	classLines
}

// NewPriorityRR returns RR1 with priority integration for n agents.
func NewPriorityRR(n int, mode RRPriorityMode) *PriorityRR {
	p := &PriorityRR{rr: RR1{n: n}, mode: mode}
	bitarb.InitVecs(n, &p.urgent, &p.cand)
	return p
}

// Name implements Protocol.
func (p *PriorityRR) Name() string {
	if p.mode == RRWithinClass {
		return "RR1+prio/rr"
	}
	return "RR1+prio"
}

// N implements Protocol.
func (p *PriorityRR) N() int { return p.rr.n }

// OnRequest implements Protocol (non-urgent).
func (p *PriorityRR) OnRequest(id int, now float64) { p.OnClassRequest(id, now, false) }

// OnClassRequest implements ClassRequester.
func (p *PriorityRR) OnClassRequest(id int, _ float64, urgent bool) { p.set(id, urgent) }

// OnServiceStart implements Protocol.
func (p *PriorityRR) OnServiceStart(id int, _ float64) { p.urgent.Clear(id) }

// Arbitrate implements Protocol.
func (p *PriorityRR) Arbitrate(waiting *bitarb.Vec) Outcome {
	lines, cls := p.pick(waiting)
	if cls == 1 && p.mode == RRIgnoreWithinClass {
		// The winner register records the identity alone.
		p.rr.lastWinner = lines.Max()
		return Outcome{Winner: p.rr.lastWinner}
	}
	return p.rr.Arbitrate(lines)
}

// Reset implements Protocol.
func (p *PriorityRR) Reset() {
	p.rr.Reset()
	p.urgent.Reset()
}

// AppendState implements Protocol: the winner register and the urgent
// lines.
func (p *PriorityRR) AppendState(dst []byte) []byte {
	return appendVec(p.rr.AppendState(dst), &p.urgent)
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
// is [ priority bit | counter | static ID ]. FCFS1's pass runs over the
// urgent lines if any is up, else over all of them. Under
// CounterMatched each class counts in its own bitarb.Arrivals, and a
// pass counts only against the winner's class. Under CounterOverflow
// one bank, one bit wider, counts against every agent on the lines,
// and the counters that reach 2^k wrap to 0.
type PriorityFCFS1 struct {
	policy FCFSCounterPolicy
	wrap   int // 2^k
	bank   [2]bitarb.Arrivals
	classLines
	// overflows counts wrap events under CounterOverflow, so experiments
	// can report how often the hazard fires.
	overflows int64
}

// NewPriorityFCFS1 returns FCFS1 with priority integration for n agents.
func NewPriorityFCFS1(n int, policy FCFSCounterPolicy) *PriorityFCFS1 {
	k := ident.Width(n)
	p := &PriorityFCFS1{policy: policy, wrap: 1 << k}
	banks := []*bitarb.Arrivals{&p.bank[0], &p.bank[1]}
	if policy == CounterOverflow {
		k, banks = k+1, banks[:1]
	}
	bitarb.InitArrivals(k, n, banks, &p.urgent, &p.cand)
	return p
}

// ctr returns the bank that holds class cls's counters: its own under
// CounterMatched, the shared one under CounterOverflow. An agent's
// counter in the other class's bank is 0.
func (p *PriorityFCFS1) ctr(cls int) *bitarb.Arrivals {
	if p.policy == CounterOverflow {
		return &p.bank[0]
	}
	return &p.bank[cls]
}

// Name implements Protocol.
func (p *PriorityFCFS1) Name() string {
	if p.policy == CounterMatched {
		return "FCFS1+prio/matched"
	}
	return "FCFS1+prio/overflow"
}

// N implements Protocol.
func (p *PriorityFCFS1) N() int { return p.urgent.N() }

// Overflows returns how many counter wraps have occurred.
func (p *PriorityFCFS1) Overflows() int64 { return p.overflows }

// Counter returns agent id's waiting-time counter (for tests).
func (p *PriorityFCFS1) Counter(id int) int { return p.ctr(p.class(id)).Get(id) }

// OnRequest implements Protocol (non-urgent).
func (p *PriorityFCFS1) OnRequest(id int, now float64) { p.OnClassRequest(id, now, false) }

// OnClassRequest implements ClassRequester.
func (p *PriorityFCFS1) OnClassRequest(id int, _ float64, urgent bool) {
	p.ctr(0).Zero(id)
	p.ctr(1).Zero(id)
	p.set(id, urgent)
}

// OnServiceStart implements Protocol. The agent has just won, so its
// counter is 0 in both banks.
func (p *PriorityFCFS1) OnServiceStart(id int, _ float64) { p.urgent.Clear(id) }

// Arbitrate implements Protocol.
func (p *PriorityFCFS1) Arbitrate(waiting *bitarb.Vec) Outcome {
	lines, cls := p.pick(waiting)
	ctr, counted := p.ctr(cls), lines
	if p.policy == CounterOverflow {
		counted = waiting
	}
	ctr.Follow(counted)
	w := ctr.MaxIn(lines)
	ctr.Tick(false)
	ctr.Zero(w)
	if p.policy == CounterOverflow {
		p.overflows += int64(ctr.Wrap(p.wrap))
	}
	return Outcome{Winner: w}
}

// Reset implements Protocol.
func (p *PriorityFCFS1) Reset() {
	p.ctr(0).Reset()
	p.ctr(1).Reset()
	p.urgent.Reset()
	p.overflows = 0
}

// AppendState implements Protocol: every agent's counter and the
// urgent lines. The overflow count is a statistic.
func (p *PriorityFCFS1) AppendState(dst []byte) []byte {
	return p.appendCounters(dst, [2]*bitarb.Arrivals{p.ctr(0), p.ctr(1)})
}

// PriorityFCFS2 is FCFS2 with two increment lines, a-incr and
// a-incr-priority (§3.2, third option): a waiting agent increments its
// counter only when a new request of its own class arrives, so the
// counters "work as well as in the original scheme". Each line drives
// an FCFS2 of its own: the urgent one arbitrates over the urgent lines
// if any is up, else the other over all of them. An agent waits in one
// at a time, and a served urgent agent hands its counter to the other,
// where it stays frozen as FCFS2's does.
type PriorityFCFS2 struct {
	line [2]FCFS2
	classLines
}

// NewPriorityFCFS2 returns FCFS2 with dual increment lines for n agents.
func NewPriorityFCFS2(n int) *PriorityFCFS2 {
	p := &PriorityFCFS2{line: [2]FCFS2{{n: n}, {n: n}}}
	bitarb.InitArrivals(ident.Width(n), n, []*bitarb.Arrivals{&p.line[0].ctr, &p.line[1].ctr}, &p.urgent, &p.cand)
	return p
}

// Name implements Protocol.
func (p *PriorityFCFS2) Name() string { return "FCFS2+prio" }

// N implements Protocol.
func (p *PriorityFCFS2) N() int { return p.line[0].n }

// OnRequest implements Protocol (non-urgent).
func (p *PriorityFCFS2) OnRequest(id int, now float64) { p.OnClassRequest(id, now, false) }

// OnClassRequest implements ClassRequester: the request pulses the
// increment line of its class; only same-class waiters count it.
func (p *PriorityFCFS2) OnClassRequest(id int, now float64, urgent bool) {
	p.line[p.class(id)].ctr.Leave(id)
	p.set(id, urgent)
	p.line[p.class(id)].OnRequest(id, now)
}

// OnServiceStart implements Protocol.
func (p *PriorityFCFS2) OnServiceStart(id int, _ float64) {
	if !p.urgent.Test(id) {
		p.line[0].ctr.Leave(id)
		return
	}
	u := &p.line[1].ctr
	c := u.Get(id)
	u.Leave(id)
	p.line[0].ctr.Freeze(id, c)
	p.urgent.Clear(id)
}

// Arbitrate implements Protocol.
func (p *PriorityFCFS2) Arbitrate(waiting *bitarb.Vec) Outcome {
	lines, cls := p.pick(waiting)
	return p.line[cls].Arbitrate(lines)
}

// Reset implements Protocol.
func (p *PriorityFCFS2) Reset() {
	p.line[0].Reset()
	p.line[1].Reset()
	p.urgent.Reset()
}

// AppendState implements Protocol: every agent's counter and the
// urgent lines. The times of the last pulses are timestamps.
func (p *PriorityFCFS2) AppendState(dst []byte) []byte {
	return p.appendCounters(dst, [2]*bitarb.Arrivals{&p.line[0].ctr, &p.line[1].ctr})
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
