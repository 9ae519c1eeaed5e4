// Package verify exhaustively explores protocol state spaces for small
// agent counts: every reachable combination of protocol state, waiting
// set, and per-agent bypass count is visited via breadth-first search
// over all request/grant interleavings. Unlike randomized tests, a pass
// here is a proof (for the given N) that no interleaving whatsoever can
// starve an agent beyond the protocol's bypass bound.
//
// The transition system is untimed: from each state, any non-waiting
// agent may request, and (if anyone waits) the bus may grant. Every
// action has its own instant, and every request is non-urgent. Every
// simulator schedule in which no two actions share an instant is a
// path here, so a bound proved here holds for those schedules. It
// says nothing of requests at a shared instant, which tie FCFS2's
// counters, reach Hybrid's round-robin tie-break and let a tree
// re-assert a line at a new request's instant. Nor does it cover a
// second request class: the bounds of the priority-integrated
// protocols are single-class results.
//
// Any core.Protocol explores, a topo.Tree included, with no copy of
// its state: a state is its parent plus one action, and the explorer
// rebuilds it on the one instance by Reset and a replay of its path.
// Two states are the same when their AppendState encodings and their
// waiting and bypass vectors are.
package verify

import (
	"encoding/binary"
	"fmt"
	"strings"

	"busarb/internal/bitarb"
	"busarb/internal/core"
)

// System describes one protocol to verify.
type System struct {
	// Proto is the protocol under test, with at least 2 agents. The
	// explorer owns it for the run and leaves it in an arbitrary state.
	Proto core.Protocol
	// MaxBypass is the claimed bound: a continuously waiting agent is
	// granted after at most MaxBypass other grants.
	MaxBypass int
}

// Bound returns the bypass bound to explore the core protocol
// registered as name against on an n-agent bus, and whether the
// protocol keeps it. Every protocol keeps N−1, except that AAP1 and
// AAP2 keep 2(N−1): a request that just misses a batch waits out the
// next one as well. Fixed priority keeps no bound; it is refuted
// against 2N, past which its lowest identity is bypassed. "Keeps" is
// what Explore shows: for requests of one class at distinct instants.
// On such paths Hybrid never reaches its round-robin tie-break, so its
// N−1 there is FCFS2's result, not a proof of Hybrid's own.
func Bound(name string, n int) (bound int, holds bool) {
	switch name {
	case "FP":
		return 2 * n, false
	case "AAP1", "AAP2":
		return 2 * (n - 1), true
	}
	return n - 1, true
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

// node is one explored state: the index of its parent and the action
// that leads from the parent to it, a request by agent act when act is
// positive and a grant to agent -act otherwise. The root's action is 0.
type node struct {
	parent int32
	act    int32
}

// explorer holds the one protocol instance and the waiting and bypass
// vectors of the state last rebuilt on it.
type explorer struct {
	p       core.Protocol
	n       int
	nodes   []node
	waiting *bitarb.Vec
	bypass  []int
	path    []int32 // replay scratch, the actions leaf first
}

// rebuild makes the instance hold state i: Reset, then every action on
// its path from the root, the k-th at time k. A path's times increase,
// so no request time repeats.
func (e *explorer) rebuild(i int32) {
	e.path = e.path[:0]
	for ; i != 0; i = e.nodes[i].parent {
		e.path = append(e.path, e.nodes[i].act)
	}
	e.p.Reset()
	e.waiting.Reset()
	clear(e.bypass)
	for k := len(e.path) - 1; k >= 0; k-- {
		act := e.path[k]
		if act > 0 {
			e.request(int(act), len(e.path)-k)
		} else if w := e.grant(len(e.path) - k); w != int(-act) {
			panic(fmt.Sprintf("verify: %s granted agent %d on replay, agent %d when explored", e.p.Name(), w, -act))
		}
	}
}

// request applies agent id's request at time t.
func (e *explorer) request(id, t int) {
	e.waiting.Set(id)
	e.bypass[id] = 0
	e.p.OnRequest(id, float64(t))
}

// grant arbitrates among the waiting agents at time t, repasses
// included, serves the winner and counts one bypass against every
// agent still waiting. It returns the winner.
func (e *explorer) grant(t int) int {
	w, _ := core.Resolve(e.p, e.waiting)
	e.waiting.Clear(w)
	e.bypass[w] = 0
	e.p.OnServiceStart(w, float64(t))
	for id := 1; id <= e.n; id++ {
		if e.waiting.Test(id) {
			e.bypass[id]++
		}
	}
	return w
}

// appendKey appends the rebuilt state's key: the waiting and bypass
// vector, one uvarint per agent (0 when it does not wait, else its
// bypass count plus 1), then the protocol's state.
func (e *explorer) appendKey(dst []byte) []byte {
	for id := 1; id <= e.n; id++ {
		b := 0
		if e.waiting.Test(id) {
			b = e.bypass[id] + 1
		}
		dst = binary.AppendUvarint(dst, uint64(b))
	}
	return e.p.AppendState(dst)
}

// pathString renders the path of the state last rebuilt, root first:
// "r<id> " for a request and "g<id> " for a grant.
func (e *explorer) pathString() string {
	var b strings.Builder
	for k := len(e.path) - 1; k >= 0; k-- {
		if a := e.path[k]; a > 0 {
			fmt.Fprintf(&b, "r%d ", a)
		} else {
			fmt.Fprintf(&b, "g%d ", -a)
		}
	}
	return b.String()
}

// Explore runs the BFS up to maxStates distinct states.
func Explore(sys System, maxStates int) Result {
	if sys.Proto == nil || sys.Proto.N() < 2 || sys.MaxBypass < 1 {
		panic("verify: incomplete system description")
	}
	n := sys.Proto.N()
	e := &explorer{
		p:       sys.Proto,
		n:       n,
		nodes:   []node{{}},
		waiting: bitarb.NewVec(n),
		bypass:  make([]int, n+1),
	}
	res := Result{Exhausted: true, States: 1}
	e.rebuild(0)
	key := e.appendKey(nil)
	seen := map[string]bool{string(key): true}
	// visit records the rebuilt state, reached from state i by act,
	// unless an equal state was seen before. It reports false once the
	// state cap is passed.
	visit := func(i, act int32, key []byte) bool {
		if seen[string(key)] {
			return true
		}
		seen[string(key)] = true
		res.States++
		if res.States > maxStates {
			res.Exhausted = false
			return false
		}
		e.nodes = append(e.nodes, node{parent: i, act: act})
		return true
	}
	var grantKey []byte
	var free []int
	for i := int32(0); int(i) < len(e.nodes); i++ {
		e.rebuild(i)
		depth := len(e.path)
		free = free[:0]
		for id := 1; id <= n; id++ {
			if !e.waiting.Test(id) {
				free = append(free, id)
			}
		}
		// The grant goes first, so that a violation is reported before
		// any successor of this state counts; it is visited after the
		// requests, which keeps the search order requests-then-grant.
		grantAct, held := int32(0), true
		if e.waiting.Any() {
			w := e.grant(depth + 1)
			grantAct, held = int32(-w), false
			for id := 1; id <= n; id++ {
				if !e.waiting.Test(id) {
					continue
				}
				res.MaxBypass = max(res.MaxBypass, e.bypass[id])
				if e.bypass[id] > sys.MaxBypass {
					res.Violation = &Violation{
						Agent:  id,
						Bypass: e.bypass[id],
						Path:   e.pathString() + fmt.Sprintf("g%d ", w),
					}
					return res
				}
			}
			grantKey = e.appendKey(grantKey[:0])
		}
		for _, id := range free {
			if !held {
				e.rebuild(i)
			}
			e.request(id, depth+1)
			held = false
			key = e.appendKey(key[:0])
			if !visit(i, int32(id), key) {
				return res
			}
		}
		if grantAct != 0 && !visit(i, grantAct, grantKey) {
			return res
		}
	}
	return res
}
