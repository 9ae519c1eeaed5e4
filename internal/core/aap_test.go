package core

import (
	"testing"

	"busarb/internal/bitarb"
	"busarb/internal/rng"
)

func TestAAP1BatchFormation(t *testing.T) {
	p := NewAAP1(8)
	d := newDriver(t, p)
	// Requests to an idle bus form a batch.
	d.requestAt(3, 1.0)
	if !p.InBatch(3) {
		t.Fatal("first request should open a batch")
	}
	// A request while the batch is in progress waits for batch end.
	d.requestAt(5, 2.0)
	if p.InBatch(5) {
		t.Fatal("mid-batch request must not join the batch (AAP1)")
	}
	// 3 is served; it was the last batch member, so 5's batch forms.
	if w := d.arbitrate(); w != 3 {
		t.Fatalf("grant = %d, want 3", w)
	}
	if !p.InBatch(5) {
		t.Fatal("pending request should form the next batch")
	}
	if w := d.arbitrate(); w != 5 {
		t.Fatalf("grant = %d, want 5", w)
	}
}

func TestAAP1WithinBatchDescendingID(t *testing.T) {
	p := NewAAP1(8)
	d := newDriver(t, p)
	d.requestAt(2, 0.0)
	// 2 opened the batch; 6 and 4 arrive mid-batch and must wait.
	d.requestAt(6, 0.1)
	d.requestAt(4, 0.2)
	if w := d.arbitrate(); w != 2 {
		t.Fatalf("grant = %d, want 2 (only batch member)", w)
	}
	// New batch {6,4}: served in descending identity order.
	if w := d.arbitrate(); w != 6 {
		t.Fatalf("grant = %d, want 6", w)
	}
	if w := d.arbitrate(); w != 4 {
		t.Fatalf("grant = %d, want 4", w)
	}
}

func TestAAP1LowIDServedLast(t *testing.T) {
	// The §2.3 unfairness mechanism: within every batch the low-identity
	// agent is served after all higher ones.
	p := NewAAP1(8)
	d := newDriver(t, p)
	for _, id := range []int{1, 5, 8, 3} {
		d.requestAt(id, 0) // simultaneous: all join the batch? No — only
		// the first opens it; the rest arrive while it is in progress.
	}
	// 1 opened the batch alone; 5, 8, 3 are pending.
	if w := d.arbitrate(); w != 1 {
		t.Fatalf("grant = %d, want 1", w)
	}
	order := []int{d.arbitrate(), d.arbitrate(), d.arbitrate()}
	if !equalInts(order, []int{8, 5, 3}) {
		t.Fatalf("batch order = %v, want [8 5 3]", order)
	}
}

func TestAAP1NoAgentServedTwicePerBatch(t *testing.T) {
	src := rng.New(505)
	for trial := 0; trial < 100; trial++ {
		n := 2 + src.Intn(16)
		p := NewAAP1(n)
		d := newDriver(t, p)
		ops := randomHistory(src, n, 150)
		servedInBatch := map[int]bool{}
		gen := p.BatchGen()
		for _, o := range ops {
			if o.arrive {
				if d.waiting[o.id] {
					continue
				}
				d.requestAt(o.id, o.time)
			} else {
				if len(d.waiting) == 0 {
					continue
				}
				if g := p.BatchGen(); g != gen {
					gen = g
					servedInBatch = map[int]bool{}
				}
				w := d.arbitrate()
				if servedInBatch[w] {
					t.Fatalf("trial %d: agent %d served twice in one batch", trial, w)
				}
				servedInBatch[w] = true
			}
		}
	}
}

func TestAAP2InhibitionAndRelease(t *testing.T) {
	p := NewAAP2(8)
	d := newDriver(t, p)
	d.requestAt(7, 0)
	d.requestAt(4, 0)
	if w := d.arbitrate(); w != 7 {
		t.Fatalf("grant = %d, want 7", w)
	}
	if !p.Inhibited(7) {
		t.Fatal("served agent must be inhibited")
	}
	// 7 requests again immediately; it must not beat the uninhibited 4.
	d.requestAt(7, 1)
	if w := d.arbitrate(); w != 4 {
		t.Fatalf("grant = %d, want 4 (7 is inhibited)", w)
	}
	// Now only the inhibited 7 waits: fairness release, then 7 wins.
	if w := d.arbitrate(); w != 7 {
		t.Fatalf("grant = %d, want 7 after fairness release", w)
	}
	if p.Inhibited(4) {
		t.Fatal("fairness release must clear all inhibit flags")
	}
}

func TestAAP2MidBatchJoin(t *testing.T) {
	// Unlike AAP1, an agent that has not been served in the current
	// batch may join it mid-stream.
	p := NewAAP2(8)
	d := newDriver(t, p)
	d.requestAt(6, 0)
	d.requestAt(2, 0)
	if w := d.arbitrate(); w != 6 {
		t.Fatalf("grant = %d, want 6", w)
	}
	// 5 arrives mid-batch, not yet served: it competes right away and
	// beats 2 on identity.
	d.requestAt(5, 1)
	if w := d.arbitrate(); w != 5 {
		t.Fatalf("grant = %d, want 5 (mid-batch join allowed in AAP2)", w)
	}
	if w := d.arbitrate(); w != 2 {
		t.Fatalf("grant = %d, want 2", w)
	}
}

func TestAAP2NoAgentServedTwicePerBatch(t *testing.T) {
	// Between two fairness releases, no agent is served twice.
	src := rng.New(606)
	for trial := 0; trial < 100; trial++ {
		n := 2 + src.Intn(16)
		p := NewAAP2(n)
		d := newDriver(t, p)
		ops := randomHistory(src, n, 150)
		servedInBatch := map[int]bool{}
		gen := p.ReleaseGen()
		for _, o := range ops {
			if o.arrive {
				if d.waiting[o.id] {
					continue
				}
				d.requestAt(o.id, o.time)
			} else {
				if len(d.waiting) == 0 {
					continue
				}
				// A fairness release (tracked by the generation counter)
				// starts a new batch.
				if g := p.ReleaseGen(); g != gen {
					gen = g
					servedInBatch = map[int]bool{}
				}
				w := d.arbitrate()
				if servedInBatch[w] {
					t.Fatalf("trial %d: agent %d served twice in one AAP2 batch", trial, w)
				}
				servedInBatch[w] = true
			}
		}
	}
}

func saturatedCounts(t *testing.T, p Protocol, n, rounds int) []int {
	d := newDriver(t, p)
	for id := 1; id <= n; id++ {
		d.requestAt(id, 0)
	}
	counts := make([]int, n+1)
	now := 1.0
	for i := 0; i < rounds*n; i++ {
		w := d.arbitrate()
		counts[w]++
		now++
		d.requestAt(w, now) // saturated: immediate re-request
	}
	return counts
}

func TestAAP1UnfairUnderSaturation(t *testing.T) {
	// The §2.3 unfairness the paper sets out to fix: a batch's
	// lowest-identity member is served last, so its re-request misses
	// the next batch. At saturation the most favored agent receives up
	// to twice ("as high as 100%", [VeLe88]) the bandwidth of the least
	// favored — the AAP column of Table 4.1(b) approaches 2.0.
	const n = 8
	counts := saturatedCounts(t, NewAAP1(n), n, 40)
	lo, hi := counts[1], counts[1]
	for id := 2; id <= n; id++ {
		if counts[id] < lo {
			lo = counts[id]
		}
		if counts[id] > hi {
			hi = counts[id]
		}
	}
	ratio := float64(hi) / float64(lo)
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("AAP1 saturation unfairness ratio = %.2f (counts %v), want ~2.0", ratio, counts[1:])
	}
}

func TestAAP2NearFairUnderSaturation(t *testing.T) {
	// AAP2's mid-batch join keeps saturated batches complete: every
	// agent is served once per fairness-release cycle.
	const n = 8
	counts := saturatedCounts(t, NewAAP2(n), n, 20)
	for id := 1; id <= n; id++ {
		if counts[id] < 18 || counts[id] > 22 {
			t.Errorf("AAP2: agent %d served %d/160, want ~20", id, counts[id])
		}
	}
}

func TestAAPReset(t *testing.T) {
	p1 := NewAAP1(4)
	p1.OnRequest(1, 0)
	p1.OnRequest(2, 0)
	p1.Reset()
	if p1.InBatch(1) || p1.InBatch(2) {
		t.Error("AAP1 Reset left batch state")
	}
	p2 := NewAAP2(4)
	p2.OnServiceStart(3, 0)
	p2.Reset()
	if p2.Inhibited(3) {
		t.Error("AAP2 Reset left inhibit state")
	}
}

func TestAAPNames(t *testing.T) {
	if NewAAP1(4).Name() != "AAP1" || NewAAP2(4).Name() != "AAP2" {
		t.Error("names wrong")
	}
	if NewAAP1(4).N() != 4 || NewAAP2(4).N() != 4 {
		t.Error("N wrong")
	}
}

// aapModel is the assured access protocols as they were kept before
// they moved onto bitmaps: bool slices scanned agent by agent, and
// every competitor's static identity compared in turn. It is the
// reference the bitmap forms are checked against.
type aapModel struct {
	aap2      bool
	n         int
	inBatch   []bool // AAP1
	pending   []bool // AAP1
	batchSz   int    // AAP1
	gen       int64  // AAP1 batches, AAP2 releases
	inhibited []bool // AAP2
	waiting   []bool // AAP2
}

func newAAPModel(aap2 bool, n int) *aapModel {
	return &aapModel{aap2: aap2, n: n, inBatch: make([]bool, n+1), pending: make([]bool, n+1),
		inhibited: make([]bool, n+1), waiting: make([]bool, n+1)}
}

func (m *aapModel) request(id int) {
	switch {
	case m.aap2:
		m.waiting[id] = true
	case m.batchSz == 0:
		m.inBatch[id] = true
		m.batchSz = 1
		m.gen++
	default:
		m.pending[id] = true
	}
}

func (m *aapModel) release() {
	clear(m.inhibited)
	m.gen++
}

func (m *aapModel) serviceStart(id int) {
	if m.aap2 {
		m.waiting[id] = false
		m.inhibited[id] = true
		for a := 1; a <= m.n; a++ {
			if m.waiting[a] && !m.inhibited[a] {
				return
			}
		}
		m.release()
		return
	}
	if !m.inBatch[id] {
		return
	}
	m.inBatch[id] = false
	m.batchSz--
	if m.batchSz == 0 {
		for a := 1; a <= m.n; a++ {
			if m.pending[a] {
				m.pending[a] = false
				m.inBatch[a] = true
				m.batchSz++
			}
		}
		if m.batchSz > 0 {
			m.gen++
		}
	}
}

// arbitrate is the highest competing identity in req: batch members
// for AAP1, un-inhibited agents for AAP2; with none, AAP2 releases and
// both fall back to the highest identity in req.
func (m *aapModel) arbitrate(req []bool) int {
	w := 0
	for id := 1; id <= m.n; id++ {
		if req[id] && (m.aap2 && !m.inhibited[id] || !m.aap2 && m.inBatch[id]) {
			w = id
		}
	}
	if w == 0 {
		if m.aap2 {
			m.release()
		}
		for id := 1; id <= m.n; id++ {
			if req[id] {
				w = id
			}
		}
	}
	return w
}

// TestAAPMatchesModel drives AAP1 and AAP2 and the bool-slice model
// through the same random operations at every word-boundary shape:
// requests (some by agents already requesting), arbitrations over the
// requesting set, a subset of it or any subset of identities, service
// starts of the winner (and now and then of any agent), and Reset.
// After every step the winner, each agent's InBatch or Inhibited flag
// and BatchGen or ReleaseGen must agree.
func TestAAPMatchesModel(t *testing.T) {
	for _, aap2 := range []bool{false, true} {
		for _, n := range []int{1, 2, 5, 63, 64, 65, 130, 1024} {
			var p interface {
				Protocol
				flag(id int) bool
				gen() int64
			}
			if aap2 {
				p = aap2Regs{NewAAP2(n)}
			} else {
				p = aap1Regs{NewAAP1(n)}
			}
			m := newAAPModel(aap2, n)
			src := rng.New(uint64(n))
			req := bitarb.NewVec(n)
			in := make([]bool, n+1)
			requesting := make([]bool, n+1)
			steps := 3000
			if n == 1024 {
				steps = 600
			}
			for step := 0; step < steps; step++ {
				switch op := src.Intn(20); {
				case op < 9:
					id := 1 + src.Intn(n)
					requesting[id] = true
					p.OnRequest(id, float64(step))
					m.request(id)
				case op < 18:
					req.Reset()
					clear(in)
					mode := src.Intn(5)
					for id := 1; id <= n; id++ {
						if mode <= 2 && requesting[id] && (mode < 2 || src.Intn(2) == 0) ||
							mode == 3 && src.Intn(2) == 0 {
							req.Set(id)
							in[id] = true
						}
					}
					if !req.Any() {
						id := 1 + src.Intn(n)
						req.Set(id)
						in[id] = true
					}
					got, want := p.Arbitrate(req).Winner, m.arbitrate(in)
					if got != want {
						t.Fatalf("%s n=%d step %d: winner over %v = %d, want %d", p.Name(), n, step, req.AppendIDs(nil), got, want)
					}
					if src.Intn(8) == 0 {
						got = 1 + src.Intn(n)
					}
					requesting[got] = false
					p.OnServiceStart(got, float64(step))
					m.serviceStart(got)
				case op == 18:
					p.Reset()
					*m = *newAAPModel(aap2, n)
					clear(requesting)
				default:
					// Service starts of agents that never requested.
					id := 1 + src.Intn(n)
					p.OnServiceStart(id, float64(step))
					m.serviceStart(id)
				}
				for id := 1; id <= n; id++ {
					want := m.inBatch[id]
					if aap2 {
						want = m.inhibited[id]
					}
					if got := p.flag(id); got != want {
						t.Fatalf("%s n=%d step %d: flag(%d) = %v, want %v", p.Name(), n, step, id, got, want)
					}
				}
				if got := p.gen(); got != m.gen {
					t.Fatalf("%s n=%d step %d: generation = %d, want %d", p.Name(), n, step, got, m.gen)
				}
			}
		}
	}
}

// aap1Regs and aap2Regs give the two protocols one face for
// TestAAPMatchesModel: the per-agent flag and the generation counter.
type aap1Regs struct{ *AAP1 }

func (p aap1Regs) flag(id int) bool { return p.InBatch(id) }
func (p aap1Regs) gen() int64       { return p.BatchGen() }

type aap2Regs struct{ *AAP2 }

func (p aap2Regs) flag(id int) bool { return p.Inhibited(id) }
func (p aap2Regs) gen() int64       { return p.ReleaseGen() }
