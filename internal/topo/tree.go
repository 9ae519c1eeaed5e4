package topo

import (
	"fmt"

	"busarb/internal/bitarb"
	"busarb/internal/core"
)

// Hop is one level's resolution within a tree arbitration, root
// first. LineUp is the time the winning request line at that level
// was asserted: the winning agent's request time at the leaf level,
// the winning cluster's line-assert time at internal levels — so
// (resolve time − LineUp) is the per-hop wait the observability layer
// reports.
type Hop struct {
	// Level is the arbitration level, 0 at the root.
	Level int
	// LineUp is when the winning line at this level went high.
	LineUp float64
}

// treeNode is one arbitration node of a Tree.
type treeNode struct {
	proto    core.Protocol
	parent   int // node index, -1 at the root
	childIdx int // 1-based identity on the parent's bus
	level    int // 0 at the root
	first    int // global agent range [first, last], DFS-contiguous
	last     int
	children []int // node indices, empty at leaves
	// lines holds the node's request lines (one per child, or one per
	// agent at a leaf) for the arbitration in progress. Nodes with the
	// same line count share one bitmap: a descent arbitrates one node at
	// a time. It is nil for a single-leaf tree, whose leaf arbitrates
	// the caller's bitmap directly.
	lines *bitarb.Vec
	// pending counts waiting agents in the subtree; the node's request
	// line to its parent is asserted iff pending > 0.
	pending int
	// lineUp is when the line to the parent was last asserted.
	lineUp float64
}

// Tree is an arbitration tree. It implements core.Protocol over the
// global agent identities, so bussim runs a tree exactly as it runs a
// flat protocol, and an arbd shard serves one exactly as it serves a
// flat resource. A single-leaf tree delegates every call to its one
// protocol instance and is bit-identical to the flat bus (the
// refactor's safety net, pinned by bussim's equivalence test).
//
// Steady-state operation is allocation-free: the descent reads each
// cluster's DFS-contiguous identity range straight off the caller's
// request-line bitmap, and every node owns its own line bitmap.
type Tree struct {
	name    string
	n       int
	depth   int
	nodes   []treeNode
	leafOf  []int     // global agent -> leaf node index (index 0 unused)
	reqTime []float64 // global agent -> pending request's issue time
	hops    []Hop     // last grant's per-level resolutions, root first
}

// NewTree builds the tree described by spec. Every node's protocol
// must be registered in core.
func NewTree(spec *Spec) (*Tree, error) {
	if err := spec.Validate(func(name string) error {
		_, err := core.ByName(name)
		return err
	}); err != nil {
		return nil, err
	}
	n := spec.TotalAgents()
	t := &Tree{
		name:    spec.Name(),
		n:       n,
		depth:   spec.Depth(),
		leafOf:  make([]int, n+1),
		reqTime: make([]float64, n+1),
		hops:    make([]Hop, 0, spec.Depth()),
		nodes:   make([]treeNode, 0, countNodes(spec)),
	}
	if _, err := t.build(spec, -1, 0, 0, 1); err != nil {
		return nil, err
	}
	return t, nil
}

// build flattens the spec subtree into t.nodes, assigning global
// identities depth-first from first. It returns the node's index.
func (t *Tree) build(s *Spec, parent, childIdx, level, first int) (int, error) {
	ni := len(t.nodes)
	t.nodes = append(t.nodes, treeNode{
		parent:   parent,
		childIdx: childIdx,
		level:    level,
		first:    first,
	})
	lines := s.Agents
	if !s.Leaf() {
		lines = len(s.Children)
	}
	factory, err := core.ByName(s.Protocol)
	if err != nil {
		return 0, err
	}
	t.nodes[ni].proto = factory(lines)
	if parent >= 0 || !s.Leaf() {
		t.nodes[ni].lines = t.linesOf(lines)
	}
	if s.Leaf() {
		t.nodes[ni].last = first + s.Agents - 1
		for g := first; g <= t.nodes[ni].last; g++ {
			t.leafOf[g] = ni
		}
		return ni, nil
	}
	t.nodes[ni].children = make([]int, 0, len(s.Children))
	next := first
	for i := range s.Children {
		ci, err := t.build(&s.Children[i], ni, i+1, level+1, next)
		if err != nil {
			return 0, err
		}
		// The append in the recursive call may have moved t.nodes.
		t.nodes[ni].children = append(t.nodes[ni].children, ci)
		next = t.nodes[ci].last + 1
	}
	t.nodes[ni].last = next - 1
	return ni, nil
}

// countNodes returns the number of arbitration nodes in a spec subtree.
func countNodes(s *Spec) int {
	n := 1
	for i := range s.Children {
		n += countNodes(&s.Children[i])
	}
	return n
}

// linesOf returns the line bitmap for a node with size lines: the one
// an already built node of that size uses, or a new one.
func (t *Tree) linesOf(size int) *bitarb.Vec {
	for i := range t.nodes {
		if v := t.nodes[i].lines; v != nil && v.N() == size {
			return v
		}
	}
	return bitarb.NewVec(size)
}

// Name implements core.Protocol: the Spec's collapsed display name
// ("RR1" for a single-leaf tree, "FCFS2(4xRR1:8)" for a uniform
// two-level one).
func (t *Tree) Name() string { return t.name }

// N implements core.Protocol.
func (t *Tree) N() int { return t.n }

// Depth returns the number of arbitration levels.
func (t *Tree) Depth() int { return t.depth }

// OnRequest implements core.Protocol: agent g's request line goes
// high on its leaf bus, and every enclosing cluster whose line was
// idle asserts its own line one level up.
func (t *Tree) OnRequest(g int, now float64) {
	t.checkAgent(g)
	t.reqTime[g] = now
	ni := t.leafOf[g]
	t.nodes[ni].proto.OnRequest(g-t.nodes[ni].first+1, now)
	for ni >= 0 {
		node := &t.nodes[ni]
		node.pending++
		if node.pending == 1 && node.parent >= 0 {
			t.nodes[node.parent].proto.OnRequest(node.childIdx, now)
			node.lineUp = now
		}
		ni = node.parent
	}
}

// OnServiceStart implements core.Protocol: the winner's request is
// consumed at every level on its path. A cluster that still has
// waiting agents re-asserts its line immediately — a fresh request at
// the parent's bus, which is what keeps FCFS counters ranking cluster
// lines by (re-)arrival order (the same rule arbd applies to several
// clients sharing one identity).
func (t *Tree) OnServiceStart(g int, now float64) {
	t.checkAgent(g)
	ni := t.leafOf[g]
	t.nodes[ni].proto.OnServiceStart(g-t.nodes[ni].first+1, now)
	for ni >= 0 {
		node := &t.nodes[ni]
		node.pending--
		if node.parent >= 0 {
			parent := t.nodes[node.parent].proto
			parent.OnServiceStart(node.childIdx, now)
			if node.pending > 0 {
				parent.OnRequest(node.childIdx, now)
				node.lineUp = now
			}
		}
		ni = node.parent
	}
}

// Arbitrate implements core.Protocol: the root arbitrates among the
// cluster lines, the winning cluster arbitrates among its own, down
// to the winning agent — one top-down settle per §2.1's composite
// arbitration number, all levels within the caller's single
// arbitration delay. A repass at any level (RR3's empty pass) aborts
// the settle and reports Repass; the caller charges a fresh
// arbitration delay and re-arbitrates the whole tree.
func (t *Tree) Arbitrate(waiting *bitarb.Vec) core.Outcome {
	t.hops = t.hops[:0]
	cur := 0
	for {
		node := &t.nodes[cur]
		lines := node.lines
		if len(node.children) == 0 {
			if lines == nil {
				lines = waiting // a single-leaf tree: the identities are its own
			} else {
				// Translate the cluster's global identities to the
				// local bus (1-based within the cluster).
				lines.Reset()
				for g := waiting.MaxBelow(node.last + 1); g >= node.first; g = waiting.MaxBelow(g) {
					lines.Set(g - node.first + 1)
				}
			}
			out := node.proto.Arbitrate(lines)
			if out.Repass {
				return core.Outcome{Repass: true}
			}
			w := out.Winner + node.first - 1
			t.hops = append(t.hops, Hop{Level: node.level, LineUp: t.reqTime[w]})
			return core.Outcome{Winner: w}
		}
		// Internal: a child's line is asserted iff some identity in
		// its contiguous range is.
		lines.Reset()
		for _, ci := range node.children {
			child := &t.nodes[ci]
			if waiting.MaxBelow(child.last+1) >= child.first {
				lines.Set(child.childIdx)
			}
		}
		out := node.proto.Arbitrate(lines)
		if out.Repass {
			return core.Outcome{Repass: true}
		}
		cur = node.children[out.Winner-1]
		t.hops = append(t.hops, Hop{Level: node.level, LineUp: t.nodes[cur].lineUp})
	}
}

// LastHops returns the per-level resolutions of the most recent
// successful Arbitrate, root first. The slice is reused by the next
// call.
func (t *Tree) LastHops() []Hop { return t.hops }

// Reset implements core.Protocol.
func (t *Tree) Reset() {
	for i := range t.nodes {
		t.nodes[i].proto.Reset()
		t.nodes[i].pending = 0
		t.nodes[i].lineUp = 0
	}
	for i := range t.reqTime {
		t.reqTime[i] = 0
	}
	t.hops = t.hops[:0]
}

// AppendState implements core.Protocol: every node's state, in node
// order. A node's pending count follows from the waiting set, and the
// line-up times, request times and hops are timestamps.
func (t *Tree) AppendState(dst []byte) []byte {
	for i := range t.nodes {
		dst = t.nodes[i].proto.AppendState(dst)
	}
	return dst
}

func (t *Tree) checkAgent(g int) {
	if g < 1 || g > t.n {
		panic(fmt.Sprintf("topo: agent %d out of range 1..%d", g, t.n))
	}
}
