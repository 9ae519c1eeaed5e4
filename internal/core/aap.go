package core

import "busarb/internal/bitarb"

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
//
// The batch and the requests pending for the next one are two bitmaps:
// a grant is one masked maximum over the request lines, and a batch
// boundary swaps the bitmaps, so nothing scans the N agents.
type AAP1 struct {
	n              int
	batch, pending bitarb.Vec
	batchSz        int
	gen            int64
}

// NewAAP1 returns the Fastbus/NuBus/Multibus II assured access protocol
// for n agents.
func NewAAP1(n int) *AAP1 {
	p := &AAP1{n: n}
	bitarb.InitVecs(n, &p.batch, &p.pending)
	return p
}

// Name implements Protocol.
func (p *AAP1) Name() string { return "AAP1" }

// N implements Protocol.
func (p *AAP1) N() int { return p.n }

// InBatch reports whether agent id is in the current batch (for tests).
func (p *AAP1) InBatch(id int) bool { return p.batch.Test(id) }

// BatchGen returns a counter that increments each time a new batch
// forms, for tests and trace output.
func (p *AAP1) BatchGen() int64 { return p.gen }

// OnRequest implements Protocol: the request joins the batch if the
// request line is low (no batch in progress), else it waits for the
// batch boundary.
func (p *AAP1) OnRequest(id int, _ float64) {
	if p.batchSz == 0 {
		p.batch.Set(id)
		p.batchSz = 1
		p.gen++
		return
	}
	p.pending.Set(id)
}

// OnServiceStart implements Protocol: the new master releases the
// request line; if it was the last batch member, the line drops and all
// pending requests form the next batch.
func (p *AAP1) OnServiceStart(id int, _ float64) {
	if !p.batch.Test(id) {
		return
	}
	p.batch.Clear(id)
	if p.batchSz--; p.batchSz > 0 {
		return
	}
	// The batch is empty, so the swap leaves pending empty.
	p.batch, p.pending = p.pending, p.batch
	if p.batchSz = p.batch.Count(); p.batchSz > 0 {
		p.gen++
	}
}

// Arbitrate implements Protocol: batch members compete on static
// identity, so the winner is the highest request in the batch.
func (p *AAP1) Arbitrate(waiting *bitarb.Vec) Outcome {
	w := waiting.MaxAnd(&p.batch)
	if w < 0 {
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
	p.batch.Reset()
	p.pending.Reset()
	p.batchSz = 0
	p.gen = 0
}

// AppendState implements Protocol: the batch and pending bitmaps. The
// batch size is the batch's count, and the generation a statistic.
func (p *AAP1) AppendState(dst []byte) []byte {
	return appendVec(appendVec(dst, &p.batch), &p.pending)
}

// AAP2 is the Futurebus assured access protocol: an agent competes in
// successive arbitrations until served, then marks itself "inhibited"
// and neither asserts the request line nor competes until a fairness
// release — an arbitration cycle in which no agent asserts the request
// line (all outstanding requests inhibited, or none outstanding). Unlike
// AAP1, a request generated mid-batch may join the current batch if its
// agent has not yet been served in it.
//
// The inhibit flags and the outstanding requests are two bitmaps: a
// grant is one masked maximum, the release test one masked maximum
// over the two, and the release clears one bitmap.
type AAP2 struct {
	n                  int
	inhibited, waiting bitarb.Vec
	releases           int64
}

// NewAAP2 returns the Futurebus assured access protocol for n agents.
func NewAAP2(n int) *AAP2 {
	p := &AAP2{n: n}
	bitarb.InitVecs(n, &p.inhibited, &p.waiting)
	return p
}

// Name implements Protocol.
func (p *AAP2) Name() string { return "AAP2" }

// N implements Protocol.
func (p *AAP2) N() int { return p.n }

// Inhibited reports whether agent id is inhibited (for tests).
func (p *AAP2) Inhibited(id int) bool { return p.inhibited.Test(id) }

// ReleaseGen returns a counter incremented on every fairness release,
// for tests and trace output.
func (p *AAP2) ReleaseGen() int64 { return p.releases }

// OnRequest implements Protocol.
func (p *AAP2) OnRequest(id int, _ float64) { p.waiting.Set(id) }

// OnServiceStart implements Protocol: the agent marks itself inhibited
// at the end of its tenure; since an agent has at most one outstanding
// request, marking at the start of tenure is equivalent. If no
// un-inhibited request remains on the bus afterwards, the request line
// is low at the next arbitration opportunity — a fairness release (§2.2:
// "either there are no outstanding requests, or all agents with
// outstanding requests are inhibited").
func (p *AAP2) OnServiceStart(id int, _ float64) {
	p.waiting.Clear(id)
	p.inhibited.Set(id)
	if p.waiting.MaxAndNot(&p.inhibited) < 0 {
		p.release()
	}
}

func (p *AAP2) release() {
	p.inhibited.Reset()
	p.releases++
}

// Arbitrate implements Protocol: the un-inhibited requests compete on
// static identity. The release normally fires in OnServiceStart the
// moment the last active request is served; the in-arbitration release
// here covers the remaining case of an inhibited agent re-requesting
// before its flag cleared.
func (p *AAP2) Arbitrate(waiting *bitarb.Vec) Outcome {
	w := waiting.MaxAndNot(&p.inhibited)
	if w < 0 {
		// Every waiting agent is inhibited: a fairness release, after
		// which they all compete.
		p.release()
		w = waiting.Max()
	}
	return Outcome{Winner: w}
}

// Reset implements Protocol.
func (p *AAP2) Reset() {
	p.inhibited.Reset()
	p.waiting.Reset()
	p.releases = 0
}

// AppendState implements Protocol: the inhibit and request bitmaps.
// The release count is a statistic.
func (p *AAP2) AppendState(dst []byte) []byte {
	return appendVec(appendVec(dst, &p.inhibited), &p.waiting)
}
