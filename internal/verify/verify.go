// Package verify exhaustively explores protocol state spaces for small
// agent counts: every reachable combination of protocol state, waiting
// set, and per-agent bypass count is visited via breadth-first search
// over all request/grant interleavings. Unlike randomized tests, a pass
// here is a proof (for the given N) that no interleaving whatsoever can
// starve an agent beyond the protocol's bypass bound.
//
// The transition system is untimed: from each state, any non-waiting
// agent may request, and (if anyone waits) the bus may grant. This
// over-approximates the timed simulator — every schedule the simulator
// can produce is a path here — so safety results carry over.
package verify

import (
	"fmt"
	"sort"
	"strings"

	"busarb/internal/bitarb"
	"busarb/internal/core"
)

// System describes one protocol to verify.
type System struct {
	// N is the number of agents.
	N int
	// New builds a fresh protocol instance.
	New func(n int) core.Protocol
	// Key returns a canonical encoding of the protocol's internal
	// state; two states with equal keys (and equal waiting/bypass
	// vectors) behave identically forever. Sound keys are derived from
	// the protocols' exported registers.
	Key func(p core.Protocol) string
	// MaxBypass is the claimed bound: a continuously waiting agent is
	// granted after at most MaxBypass other grants.
	MaxBypass int
}

// Violation describes a found counterexample.
type Violation struct {
	Agent  int
	Bypass int
	Path   string
}

// Result summarizes an exploration.
type Result struct {
	States    int
	MaxBypass int // worst bypass actually observed
	Violation *Violation
	Exhausted bool // false if the state cap stopped the search
}

type state struct {
	proto   core.Protocol
	waiting []bool
	bypass  []int
	path    string
}

func (s *state) key(sys System) string {
	var b strings.Builder
	b.WriteString(sys.Key(s.proto))
	b.WriteByte('|')
	for id := 1; id <= sys.N; id++ {
		if s.waiting[id] {
			fmt.Fprintf(&b, "w%d:%d,", id, s.bypass[id])
		}
	}
	return b.String()
}

// lines latches the state's waiting agents into the request-line
// bitmap v and reports whether any agent waits.
func (s *state) lines(v *bitarb.Vec) bool {
	v.Reset()
	for id := 1; id <= v.N(); id++ {
		if s.waiting[id] {
			v.Set(id)
		}
	}
	return v.Any()
}

// Explore runs the BFS up to maxStates distinct states.
func Explore(sys System, maxStates int) Result {
	if sys.N < 2 || sys.New == nil || sys.Key == nil || sys.MaxBypass < 1 {
		panic("verify: incomplete system description")
	}
	res := Result{Exhausted: true}
	initial := &state{
		proto:   sys.New(sys.N),
		waiting: make([]bool, sys.N+1),
		bypass:  make([]int, sys.N+1),
	}
	seen := map[string]bool{initial.key(sys): true}
	queue := []*state{initial}
	res.States = 1
	// step is a logical timestamp for OnRequest; it is NOT part of the
	// state key (protocol registers are bounded even when time is not).
	step := 0.0
	// lines is the request-line bitmap each grant arbitrates over,
	// reused: Arbitrate reads it synchronously and keeps nothing.
	lines := bitarb.NewVec(sys.N)

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]

		var succs []*state
		// Action: a non-waiting agent requests.
		for id := 1; id <= sys.N; id++ {
			if cur.waiting[id] {
				continue
			}
			next := clone(cur, sys.N)
			step++
			next.waiting[id] = true
			next.bypass[id] = 0
			next.proto.OnRequest(id, step)
			next.path = cur.path + fmt.Sprintf("r%d ", id)
			succs = append(succs, next)
		}
		// Action: the bus grants (if anyone waits).
		if cur.lines(lines) {
			next := clone(cur, sys.N)
			step++
			w := arbitrate(next.proto, lines)
			next.waiting[w] = false
			next.bypass[w] = 0
			next.proto.OnServiceStart(w, step)
			next.path = cur.path + fmt.Sprintf("g%d ", w)
			for id := 1; id <= sys.N; id++ {
				if next.waiting[id] {
					next.bypass[id]++
					if next.bypass[id] > res.MaxBypass {
						res.MaxBypass = next.bypass[id]
					}
					if next.bypass[id] > sys.MaxBypass {
						res.Violation = &Violation{
							Agent:  id,
							Bypass: next.bypass[id],
							Path:   next.path,
						}
						return res
					}
				}
			}
			succs = append(succs, next)
		}

		for _, next := range succs {
			k := next.key(sys)
			if seen[k] {
				continue
			}
			seen[k] = true
			res.States++
			if res.States > maxStates {
				res.Exhausted = false
				return res
			}
			queue = append(queue, next)
		}
	}
	return res
}

// clone deep-copies a state, rebuilding the protocol by replaying its
// canonical pieces. Protocols are cheap value-ish structures; cloning
// via the Cloner interface when available, else via replay is not
// possible generically — so clone relies on each supported protocol
// implementing the internal snapshot below.
func clone(s *state, n int) *state {
	next := &state{
		proto:   cloneProtocol(s.proto),
		waiting: append([]bool(nil), s.waiting...),
		bypass:  append([]int(nil), s.bypass...),
		path:    s.path,
	}
	_ = n
	return next
}

// arbitrate resolves an arbitration including RR3 repasses.
func arbitrate(p core.Protocol, waiting *bitarb.Vec) int {
	for pass := 0; ; pass++ {
		if pass > 2 {
			panic("verify: runaway repass")
		}
		out := p.Arbitrate(waiting)
		if !out.Repass {
			return out.Winner
		}
	}
}

// cloneProtocol copies the supported protocol implementations.
func cloneProtocol(p core.Protocol) core.Protocol {
	switch v := p.(type) {
	case *core.FixedPriority:
		return core.NewFixedPriority(v.N())
	case *core.RR1:
		c := core.NewRR1(v.N())
		c.SetLastWinner(v.LastWinner())
		return c
	case *core.RR2:
		c := core.NewRR2(v.N())
		c.SetLastWinner(v.LastWinner())
		return c
	case *core.RR3:
		c := core.NewRR3(v.N())
		c.SetLastWinner(v.LastWinner())
		return c
	case *core.FCFS1:
		return v.Clone()
	case *core.FCFS2:
		return v.Clone()
	case *core.AAP1:
		return v.Clone()
	case *core.AAP2:
		return v.Clone()
	case *core.RotatingRR:
		return v.Clone()
	default:
		panic(fmt.Sprintf("verify: cannot clone protocol %T", p))
	}
}

// KeyRotRR keys the rotating-priority scheme by every agent's private
// rotation base (they can diverge — that divergence is the point of the
// robustness study; healthy systems keep them equal).
func KeyRotRR(p core.Protocol) string {
	v := p.(*core.RotatingRR)
	var b strings.Builder
	b.WriteString("rot")
	for id := 1; id <= v.N(); id++ {
		fmt.Fprintf(&b, "%d,", v.Base(id))
	}
	return b.String()
}

// Keys for the supported protocols, built from exported registers.

// KeyRR keys any of the three RR implementations by the winner register.
func KeyRR(p core.Protocol) string {
	switch v := p.(type) {
	case *core.RR1:
		return fmt.Sprintf("rr%d", v.LastWinner())
	case *core.RR2:
		return fmt.Sprintf("rr%d", v.LastWinner())
	case *core.RR3:
		return fmt.Sprintf("rr%d", v.LastWinner())
	}
	panic("verify: KeyRR on non-RR protocol")
}

// KeyFP is the fixed-priority key (stateless).
func KeyFP(core.Protocol) string { return "fp" }

// KeyCounters keys FCFS1/FCFS2 by the waiting-time counters.
func KeyCounters(p core.Protocol) string {
	type counterer interface {
		N() int
		Counter(id int) int
	}
	c, ok := p.(counterer)
	if !ok {
		panic("verify: KeyCounters on protocol without counters")
	}
	parts := make([]string, 0, c.N())
	for id := 1; id <= c.N(); id++ {
		parts = append(parts, fmt.Sprintf("%d", c.Counter(id)))
	}
	return "ctr" + strings.Join(parts, ",")
}

// KeyAAP1 keys AAP1 by batch membership (pending follows from the
// waiting set, which the explorer already keys).
func KeyAAP1(p core.Protocol) string {
	v := p.(*core.AAP1)
	var ids []int
	for id := 1; id <= v.N(); id++ {
		if v.InBatch(id) {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return fmt.Sprintf("b%v", ids)
}

// KeyAAP2 keys AAP2 by the inhibit flags.
func KeyAAP2(p core.Protocol) string {
	v := p.(*core.AAP2)
	var b strings.Builder
	b.WriteString("i")
	for id := 1; id <= v.N(); id++ {
		if v.Inhibited(id) {
			fmt.Fprintf(&b, "%d,", id)
		}
	}
	return b.String()
}
