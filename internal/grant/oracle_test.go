package grant

import (
	"fmt"
	"testing"

	"busarb/internal/contention"
	"busarb/internal/core"
	"busarb/internal/ident"
	"busarb/internal/rng"
)

// settleModel is the test-only wired-OR reference for the protocols
// that resolve on the bitarb kernel. It keeps their registers as plain
// integers and settles every arbitration the §2.1 way: each competitor
// applies its ident.Number, encoded under the protocol's layout, to
// contention lines that settle to the maximum.
type settleModel struct {
	name     string
	n        int
	layout   ident.Layout
	arb      *contention.Arbitration
	comps    []contention.Competitor
	waiting  []bool
	last     int   // RR winner register
	ctr      []int // FCFS waiting-time counters
	repasses int
}

// settleLayout is the paper's arbitration-number layout for each
// modelled protocol over n agents: the static identity, plus the
// round-robin bit for RR1 (§3.1) and a ceil(log2 N)-bit waiting-time
// counter above the identity for FCFS1 and FCFS2 (§3.2).
func settleLayout(name string, n int) ident.Layout {
	switch name {
	case "RR1":
		return ident.Layout{StaticBits: ident.Width(n), RRBit: true}
	case "FCFS1", "FCFS2":
		return ident.Layout{StaticBits: ident.Width(n), CounterBits: ident.Width(n)}
	case "FP", "RR2", "RR3":
		return ident.LayoutFor(n)
	}
	panic(fmt.Sprintf("no settle model for %s", name))
}

func newSettleModel(name string, n int) *settleModel {
	layout := settleLayout(name, n)
	return &settleModel{
		name:   name,
		n:      n,
		layout: layout,
		// Identities drive the bank directly, so it needs n+1 driver
		// slots (identity 0 is reserved, §2.1).
		arb:     contention.New(layout.TotalBits(), n+1),
		waiting: make([]bool, n+1),
		ctr:     make([]int, n+1),
	}
}

// bump increments agent a's counter, saturating at the field maximum.
func (m *settleModel) bump(a int) {
	if m.ctr[a] < 1<<m.layout.CounterBits-1 {
		m.ctr[a]++
	}
}

func (m *settleModel) request(id int) {
	if m.name == "FCFS2" {
		// The newcomer pulses a-incr: every waiting agent counts it.
		for a := 1; a <= m.n; a++ {
			if m.waiting[a] {
				m.bump(a)
			}
		}
	}
	m.ctr[id] = 0
	m.waiting[id] = true
}

// settle runs one contention among the waiting agents below limit and
// returns the winner, or 0 if nobody competed.
func (m *settleModel) settle(limit int) int {
	m.comps = m.comps[:0]
	for id := 1; id < limit && id <= m.n; id++ {
		if !m.waiting[id] {
			continue
		}
		num := ident.Number{Static: id}
		switch m.name {
		case "RR1":
			num.RR = id < m.last
		case "FCFS1", "FCFS2":
			num.Counter = m.ctr[id]
		}
		m.comps = append(m.comps, contention.Competitor{Agent: id, Number: m.layout.Encode(num)})
	}
	if len(m.comps) == 0 {
		return 0
	}
	return m.comps[m.arb.Run(m.comps).Winner].Agent
}

func (m *settleModel) grant() int {
	everyone := m.n + 1
	var w int
	switch m.name {
	case "RR2":
		// The low-request line restricts the contention to agents below
		// the previous winner whenever one of them is waiting.
		if w = m.settle(m.last); w == 0 {
			w = m.settle(everyone)
		}
	case "RR3":
		// Only agents below the previous winner compete; an empty pass
		// records N+1 and arbitrates again (§3.1).
		if w = m.settle(m.last); w == 0 {
			m.repasses++
			m.last = everyone
			w = m.settle(m.last)
		}
	default:
		w = m.settle(everyone)
	}
	if m.name == "FCFS1" {
		for a := 1; a <= m.n; a++ {
			if m.waiting[a] && a != w {
				m.bump(a)
			}
		}
	}
	m.ctr[w] = 0
	m.waiting[w] = false
	m.last = w
	return w
}

// TestKernelMatchesSettleOracle is the equivalence contract between
// what arbd grants — the controller driving the core protocol, whose
// resolutions run on the bitarb kernel — and the wired-OR settle: the
// two replay the same random history of requests and grants and must
// produce identical winner sequences and repass counts. Agent counts
// straddle the 64-bit word boundaries and reach kernel scale.
func TestKernelMatchesSettleOracle(t *testing.T) {
	ns := []int{1, 2, 5, 63, 64, 65, 130, 1024}
	for _, name := range []string{"FCFS1", "FCFS2", "FP", "RR1", "RR2", "RR3"} {
		f, err := core.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range ns {
			if n > 200 && testing.Short() {
				continue
			}
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				b := newShardBus(f(n))
				model := newSettleModel(name, n)
				repasses := 0
				grant := func() {
					w, r := b.resolve()
					if want := model.grant(); w != want {
						t.Fatalf("kernel granted %d, settle oracle %d", w, want)
					}
					repasses += r
				}

				src := rng.New(uint64(n)*1315423911 + uint64(len(name)))
				events := 400
				if n > 200 {
					events = 1200 // enough churn to wrap lastWinner / counters
				}
				for ev := 0; ev < events; ev++ {
					if src.Intn(3) != 0 || b.pending() == 0 {
						if agent := 1 + src.Intn(n); b.assert(agent) {
							model.request(agent)
						}
						continue
					}
					grant()
				}
				// Drain both to compare the full winner sequence.
				for b.pending() > 0 {
					grant()
				}
				if repasses != model.repasses {
					t.Fatalf("repasses: kernel %d, settle oracle %d", repasses, model.repasses)
				}
			})
		}
	}
}
