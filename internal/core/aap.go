package core

import (
	"busarb/internal/bitarb"
	"busarb/internal/ident"
)

// The two assured access protocols of §2.2 — the fairness mechanisms
// the 1980s bus standards actually shipped, and the baselines whose
// unfairness (Table 4.1(b), [VeLe88]) motivates the paper.

// AAP1 is the batching protocol adopted by Fastbus, NuBus, and
// Multibus II: requests that arrive while the shared request line is low
// assert it and form a batch; an agent in the batch competes in every
// arbitration until served; requests generated while a batch is in
// progress wait for the batch to end. Each batch member releases the
// request line at the start of its tenure, so the line drops — ending
// the batch — when the last member becomes master; every request waiting
// at that moment forms the next batch. Within a batch, service order is
// descending static identity (the raw contention arbitration), which is
// what makes the protocol unfair.
type AAP1 struct {
	n       int
	layout  ident.Layout
	inBatch []bool
	pending []bool
	batchSz int
	gen     int64
}

// NewAAP1 returns the Fastbus/NuBus/Multibus II assured access protocol
// for n agents.
func NewAAP1(n int) *AAP1 {
	return &AAP1{
		n:       n,
		layout:  ident.LayoutFor(n),
		inBatch: make([]bool, n+1),
		pending: make([]bool, n+1),
	}
}

// Name implements Protocol.
func (p *AAP1) Name() string { return "AAP1" }

// N implements Protocol.
func (p *AAP1) N() int { return p.n }

// InBatch reports whether agent id is in the current batch (for tests).
func (p *AAP1) InBatch(id int) bool { return p.inBatch[id] }

// BatchGen returns a counter that increments each time a new batch
// forms, for tests and trace output.
func (p *AAP1) BatchGen() int64 { return p.gen }

// OnRequest implements Protocol: the request joins the batch if the
// request line is low (no batch in progress), else it waits for the
// batch boundary.
func (p *AAP1) OnRequest(id int, _ float64) {
	if p.batchSz == 0 {
		p.inBatch[id] = true
		p.batchSz = 1
		p.gen++
		return
	}
	p.pending[id] = true
}

// OnServiceStart implements Protocol: the new master releases the
// request line; if it was the last batch member, the line drops and all
// pending requests form the next batch.
func (p *AAP1) OnServiceStart(id int, _ float64) {
	if !p.inBatch[id] {
		return
	}
	p.inBatch[id] = false
	p.batchSz--
	if p.batchSz == 0 {
		for a := 1; a <= p.n; a++ {
			if p.pending[a] {
				p.pending[a] = false
				p.inBatch[a] = true
				p.batchSz++
			}
		}
		if p.batchSz > 0 {
			p.gen++
		}
	}
}

// Arbitrate implements Protocol: batch members compete on static
// identity.
func (p *AAP1) Arbitrate(waiting *bitarb.Vec) Outcome {
	w := contend(waiting, func(id int) (uint64, bool) {
		return p.layout.Encode(ident.Number{Static: id}), p.inBatch[id]
	})
	if w == 0 {
		// Unreachable under the simulator's contract (a waiting agent is
		// in the batch or pending, and the batch is non-empty whenever
		// anyone waits), but arbitrating among all waiters is the safe
		// hardware-like fallback.
		w = waiting.Max()
	}
	return Outcome{Winner: w}
}

// Reset implements Protocol.
func (p *AAP1) Reset() {
	for i := range p.inBatch {
		p.inBatch[i] = false
		p.pending[i] = false
	}
	p.batchSz = 0
}

// AAP2 is the Futurebus assured access protocol: an agent competes in
// successive arbitrations until served, then marks itself "inhibited"
// and neither asserts the request line nor competes until a fairness
// release — an arbitration cycle in which no agent asserts the request
// line (all outstanding requests inhibited, or none outstanding). Unlike
// AAP1, a request generated mid-batch may join the current batch if its
// agent has not yet been served in it.
type AAP2 struct {
	n         int
	layout    ident.Layout
	inhibited []bool
	waiting   []bool
	releases  int64
}

// NewAAP2 returns the Futurebus assured access protocol for n agents.
func NewAAP2(n int) *AAP2 {
	return &AAP2{
		n:         n,
		layout:    ident.LayoutFor(n),
		inhibited: make([]bool, n+1),
		waiting:   make([]bool, n+1),
	}
}

// Name implements Protocol.
func (p *AAP2) Name() string { return "AAP2" }

// N implements Protocol.
func (p *AAP2) N() int { return p.n }

// Inhibited reports whether agent id is inhibited (for tests).
func (p *AAP2) Inhibited(id int) bool { return p.inhibited[id] }

// ReleaseGen returns a counter incremented on every fairness release,
// for tests and trace output.
func (p *AAP2) ReleaseGen() int64 { return p.releases }

// OnRequest implements Protocol.
func (p *AAP2) OnRequest(id int, _ float64) { p.waiting[id] = true }

// OnServiceStart implements Protocol: the agent marks itself inhibited
// at the end of its tenure; since an agent has at most one outstanding
// request, marking at the start of tenure is equivalent. If no
// un-inhibited request remains on the bus afterwards, the request line
// is low at the next arbitration opportunity — a fairness release (§2.2:
// "either there are no outstanding requests, or all agents with
// outstanding requests are inhibited").
func (p *AAP2) OnServiceStart(id int, _ float64) {
	p.waiting[id] = false
	p.inhibited[id] = true
	for a := 1; a <= p.n; a++ {
		if p.waiting[a] && !p.inhibited[a] {
			return
		}
	}
	p.release()
}

func (p *AAP2) release() {
	for i := range p.inhibited {
		p.inhibited[i] = false
	}
	p.releases++
}

// Arbitrate implements Protocol. The release normally fires in
// OnServiceStart the moment the last active request is served; the
// in-arbitration release here covers the remaining case of an inhibited
// agent re-requesting before its flag cleared.
func (p *AAP2) Arbitrate(waiting *bitarb.Vec) Outcome {
	w := contend(waiting, func(id int) (uint64, bool) {
		return p.layout.Encode(ident.Number{Static: id}), !p.inhibited[id]
	})
	if w == 0 {
		// Every waiting agent is inhibited: a fairness release, after
		// which they all compete.
		p.release()
		w = waiting.Max()
	}
	return Outcome{Winner: w}
}

// Reset implements Protocol.
func (p *AAP2) Reset() {
	for i := range p.inhibited {
		p.inhibited[i] = false
		p.waiting[i] = false
	}
	p.releases = 0
}
