package core

import (
	"fmt"
	"math/bits"

	"busarb/internal/bitarb"
	"busarb/internal/ident"
)

// ceilLog2 returns ceil(log2 v) for v >= 1.
func ceilLog2(v int) int {
	if v <= 1 {
		return 0
	}
	return bits.Len(uint(v - 1))
}

// MultiFCFS is the §3.2 extension allowing each agent up to r
// outstanding requests while still serving all requests in global FCFS
// order: the waiting-time counter gains ceil(log2 r) bits ("if one
// allows each agent to have up to 8 requests outstanding, first come
// first serve can still be implemented with only 3 more lines").
//
// Each queued request carries its own counter, incremented on every
// a-incr pulse (FCFS2 counting); the agent arbitrates with the counter
// of its oldest request and serves requests in its own FIFO order, which
// together realize global arrival order.
type MultiFCFS struct {
	n      int
	r      int
	maxCtr int     // the counter field's largest value
	queues [][]int // per-agent FIFO of request counters
}

// NewMultiFCFS returns the multi-outstanding FCFS protocol for n agents
// with up to r outstanding requests each.
func NewMultiFCFS(n, r int) *MultiFCFS {
	if r < 1 {
		panic(fmt.Sprintf("core: MultiFCFS needs r >= 1, got %d", r))
	}
	return &MultiFCFS{
		n:      n,
		r:      r,
		maxCtr: 1<<(ident.Width(n)+ceilLog2(r)) - 1,
		queues: make([][]int, n+1),
	}
}

// Name implements Protocol.
func (p *MultiFCFS) Name() string { return fmt.Sprintf("FCFSx%d", p.r) }

// N implements Protocol.
func (p *MultiFCFS) N() int { return p.n }

// MaxOutstanding returns r.
func (p *MultiFCFS) MaxOutstanding() int { return p.r }

// QueueLen returns how many requests agent id has outstanding.
func (p *MultiFCFS) QueueLen(id int) int { return len(p.queues[id]) }

// ExtraCounterBits returns the counter width beyond the single-request
// protocol's ceil(log2 N) — the paper's "only ceil(log2 r) more bits":
// 3 for r = 8, 0 for r = 1.
func (p *MultiFCFS) ExtraCounterBits() int { return ceilLog2(p.r) }

// OnRequest implements Protocol: the new request pulses a-incr; every
// waiting request (on every agent) increments; the new request enqueues
// with counter 0. It panics if the agent already has r requests
// outstanding — the workload must respect the window.
func (p *MultiFCFS) OnRequest(id int, _ float64) {
	if len(p.queues[id]) >= p.r {
		panic(fmt.Sprintf("core: agent %d exceeded %d outstanding requests", id, p.r))
	}
	for a := 1; a <= p.n; a++ {
		q := p.queues[a]
		for i := range q {
			if q[i] < p.maxCtr {
				q[i]++
			}
		}
	}
	//arblint:alloc each FIFO grows to its window r once: OnServiceStart pops in place
	p.queues[id] = append(p.queues[id], 0)
}

// OnServiceStart implements Protocol: the oldest request is served.
func (p *MultiFCFS) OnServiceStart(id int, _ float64) {
	q := p.queues[id]
	if len(q) == 0 {
		panic(fmt.Sprintf("core: service start for agent %d with empty queue", id))
	}
	p.queues[id] = q[:copy(q, q[1:])]
}

// Arbitrate implements Protocol: each waiting agent competes with the
// counter of its oldest (highest-counter) request, ties toward the
// higher identity. It visits every competitor, as the pulses visit
// every queued request: the counters sit in per-request FIFOs, which
// bitarb.Arrivals, one counter per agent, does not hold.
func (p *MultiFCFS) Arbitrate(waiting *bitarb.Vec) Outcome {
	winner, best := 0, -1
	for id := waiting.Max(); id > 0; id = waiting.MaxBelow(id) {
		q := p.queues[id]
		if len(q) == 0 {
			panic(fmt.Sprintf("core: agent %d waiting with empty queue", id))
		}
		// Highest identity first: only a larger counter displaces.
		if q[0] > best {
			winner, best = id, q[0]
		}
	}
	return Outcome{Winner: winner}
}

// Reset implements Protocol.
func (p *MultiFCFS) Reset() {
	for i := range p.queues {
		p.queues[i] = nil
	}
}

// AppendState implements Protocol: every agent's queue, as its length
// and then its counters, oldest first.
func (p *MultiFCFS) AppendState(dst []byte) []byte {
	for _, q := range p.queues[1:] {
		dst = appendUint(dst, len(q))
		for _, c := range q {
			dst = appendUint(dst, c)
		}
	}
	return dst
}
