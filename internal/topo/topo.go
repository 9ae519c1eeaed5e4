// Package topo makes arbitration topology a first-class layer:
// instead of one flat bus, agents are grouped into clusters whose
// local arbiters feed a parent arbiter, recursively, up to a root.
// This is the hierarchical generalization of the paper's §5 hybrid
// direction — any §3 protocol at any level — so "local RR1 feeding a
// global FCFS2" is just a two-level Spec.
//
// The model is composable wired-OR hardware: every node owns one
// arbiter (any registered protocol) and a set of request lines, one
// per child. A leaf node's lines are its agents' request lines; an
// internal node's lines are asserted by child clusters that have at
// least one waiting agent. A grant settles top-down — the root picks
// a cluster, that cluster picks a sub-cluster, and so on to the
// winning agent — and the whole composite settles within a single
// arbitration delay (the levels are just more bits in the §2.1
// composite arbitration number). A repass at any level (RR3's empty
// pass) restarts the arbitration at every level and is charged one
// full extra arbitration delay, the §3.1 accounting generalized.
//
// Agents carry global identities 1..TotalAgents, assigned depth-first
// so every subtree owns one contiguous range — which is what lets a
// cluster read its request lines straight off the caller's bitmap,
// allocation-free, on top of the bit-parallel kernel paths of the
// per-node protocols.
//
// The tree has one face: Tree implements core.Protocol, so the
// simulators run it as a bus (a single-node tree is bit-identical to
// the flat bus) and arbd serves it behind resource specs like
// "8x4:RR1/FCFS2".
package topo

import (
	"fmt"
	"strconv"
	"strings"
)

// MaxDepth bounds tree depth; deeper specs are rejected by Validate.
// Real interconnects are 2-3 levels; the bound only exists to keep
// hostile inputs (fuzzed scenarios, wire specs) from recursing away.
const MaxDepth = 8

// Spec describes one arbitration node: a protocol plus either a count
// of directly attached agents (leaf cluster) or child nodes (internal
// node). Exactly one of Agents and Children must be set.
//
// The JSON form is the scenario schema's topology vocabulary:
//
//	{"protocol": "FCFS2", "children": [
//	  {"protocol": "RR1", "agents": 8},
//	  {"protocol": "RR1", "agents": 8}]}
//
// A flat bus is the degenerate single-leaf Spec {Protocol, Agents}.
type Spec struct {
	// Protocol names this node's arbiter: any core protocol ("RR1",
	// "FCFS2", ...).
	Protocol string `json:"protocol"`
	// Agents is the number of agents on a leaf cluster's bus.
	Agents int `json:"agents,omitempty"`
	// Children are the sub-clusters competing on an internal node's bus.
	Children []Spec `json:"children,omitempty"`
}

// Leaf reports whether the node has directly attached agents.
func (s *Spec) Leaf() bool { return len(s.Children) == 0 }

// TotalAgents returns the number of agents in the subtree.
func (s *Spec) TotalAgents() int {
	if s.Leaf() {
		return s.Agents
	}
	total := 0
	for i := range s.Children {
		total += s.Children[i].TotalAgents()
	}
	return total
}

// Depth returns the number of arbitration levels (1 for a flat bus).
func (s *Spec) Depth() int {
	if s.Leaf() {
		return 1
	}
	max := 0
	for i := range s.Children {
		if d := s.Children[i].Depth(); d > max {
			max = d
		}
	}
	return 1 + max
}

// Validate walks the spec, checking shape (exactly one of agents and
// children, at least 2 children per internal node, depth within
// MaxDepth) and every protocol name through avail. Errors name the
// offending node by path, e.g. `children[1].children[0]`.
func (s *Spec) Validate(avail func(protocol string) error) error {
	return s.validate(avail, "topology", 1)
}

func (s *Spec) validate(avail func(string) error, path string, depth int) error {
	if depth > MaxDepth {
		return fmt.Errorf("topo: %s: depth exceeds %d levels", path, MaxDepth)
	}
	if s.Protocol == "" {
		return fmt.Errorf("topo: %s: missing protocol", path)
	}
	if avail != nil {
		if err := avail(s.Protocol); err != nil {
			return fmt.Errorf("topo: %s: %w", path, err)
		}
	}
	if s.Agents != 0 && len(s.Children) != 0 {
		return fmt.Errorf("topo: %s: set agents or children, not both", path)
	}
	if s.Leaf() {
		if s.Agents < 1 {
			return fmt.Errorf("topo: %s: leaf needs at least 1 agent, got %d", path, s.Agents)
		}
		return nil
	}
	if len(s.Children) < 2 {
		return fmt.Errorf("topo: %s: internal node needs at least 2 children, got %d", path, len(s.Children))
	}
	for i := range s.Children {
		child := fmt.Sprintf("%s.children[%d]", path, i)
		if err := s.Children[i].validate(avail, child, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// Name returns a compact display name: a leaf is its bare protocol
// ("RR1", so a single-node tree reports the same ProtocolName as the
// flat bus it replaces), an internal node with identical children
// collapses to "FCFS2(4xRR1:8)", and mixed children are listed.
func (s *Spec) Name() string {
	if s.Leaf() {
		return s.Protocol
	}
	uniform := true
	for i := 1; i < len(s.Children); i++ {
		if !equalSpec(&s.Children[i], &s.Children[0]) {
			uniform = false
			break
		}
	}
	if uniform {
		return fmt.Sprintf("%s(%dx%s)", s.Protocol, len(s.Children), s.Children[0].childName())
	}
	parts := make([]string, len(s.Children))
	for i := range s.Children {
		parts[i] = s.Children[i].childName()
	}
	return fmt.Sprintf("%s(%s)", s.Protocol, strings.Join(parts, ","))
}

// childName is Name with leaf cluster sizes spelled out ("RR1:8").
func (s *Spec) childName() string {
	if s.Leaf() {
		return fmt.Sprintf("%s:%d", s.Protocol, s.Agents)
	}
	return s.Name()
}

func equalSpec(a, b *Spec) bool {
	if a.Protocol != b.Protocol || a.Agents != b.Agents || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !equalSpec(&a.Children[i], &b.Children[i]) {
			return false
		}
	}
	return true
}

// Uniform builds a balanced tree. dims and protos run leaf to root:
// dims[0] is the agents per leaf cluster, dims[i>0] the fan-out at
// level i, protos[i] the protocol at that level. Uniform([8, 4],
// ["RR1", "FCFS2"]) is 4 clusters of 8 agents arbitrating by RR1
// locally, cluster winners competing by FCFS2 at the root.
func Uniform(dims []int, protos []string) (*Spec, error) {
	if len(dims) == 0 || len(dims) != len(protos) {
		return nil, fmt.Errorf("topo: need one protocol per dimension, got %d dims and %d protocols",
			len(dims), len(protos))
	}
	for i, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("topo: dimension %d must be positive, got %d", i, d)
		}
	}
	spec := &Spec{Protocol: protos[0], Agents: dims[0]}
	for lvl := 1; lvl < len(dims); lvl++ {
		children := make([]Spec, dims[lvl])
		for i := range children {
			children[i] = *spec
		}
		spec = &Spec{Protocol: protos[lvl], Children: children}
	}
	return spec, nil
}

// ParseUniform parses the compact tree syntax of arbd resource specs:
// dims "8x4" with protos "RR1/FCFS2" is Uniform([8,4], [RR1,FCFS2]) —
// both lists run leaf to root and must have the same length. A single
// dimension with a single protocol ("32" with "RR1") is the flat bus.
func ParseUniform(dims, protos string) (*Spec, error) {
	dimParts := strings.Split(dims, "x")
	protoParts := strings.Split(protos, "/")
	if len(dimParts) != len(protoParts) {
		return nil, fmt.Errorf("topo: %d dimensions %q but %d protocols %q (need one protocol per level, leaf to root)",
			len(dimParts), dims, len(protoParts), protos)
	}
	d := make([]int, len(dimParts))
	for i, p := range dimParts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("topo: bad dimension %q in %q", p, dims)
		}
		d[i] = v
	}
	return Uniform(d, protoParts)
}
