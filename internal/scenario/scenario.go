// Package scenario loads simulation scenarios from JSON files, so that
// cmd/arbsim (and downstream users) can describe heterogeneous agent
// populations without writing Go. A scenario names the protocol, the
// statistical effort, and groups of agents with per-group offered load,
// interrequest CV, and urgent-request probability.
//
// Example:
//
//	{
//	  "name": "cpu-cluster-with-dma",
//	  "protocol": "FCFS2",
//	  "seed": 7,
//	  "agents": [
//	    {"count": 15, "load": 0.05, "cv": 1.0},
//	    {"count": 1,  "load": 0.20, "cv": 0.5, "urgent_prob": 0.1}
//	  ]
//	}
//
// A scenario may instead describe a hierarchical topology: clusters of
// agents arbitrating locally, cluster winners competing at a root bus
// running the top-level protocol (the paper's §5 hybrid generalized to
// hierarchy):
//
//	{
//	  "name": "hierarchical",
//	  "protocol": "FCFS2",
//	  "topology": {
//	    "local_protocol": "RR1",
//	    "clusters": [
//	      {"agents": [{"count": 8, "load": 0.05}]},
//	      {"protocol": "RR3", "agents": [{"count": 8, "load": 0.05}]}
//	    ]
//	  }
//	}
//
// Agent identities are assigned in file order, starting at 1 (cluster
// by cluster in topology form). The flat form canonicalizes to a
// single-leaf tree, so both forms run the same simulator core.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"busarb/internal/bussim"
	"busarb/internal/core"
	"busarb/internal/dist"
	"busarb/internal/topo"
)

// Group describes a run of identical agents.
type Group struct {
	// Count is the number of agents in the group (>= 1).
	Count int `json:"count"`
	// Load is each agent's offered load, in (0, 1).
	Load float64 `json:"load"`
	// CV is the interrequest coefficient of variation (default 1.0;
	// note that 0 means deterministic, so the default applies only
	// when the field is absent).
	CV *float64 `json:"cv,omitempty"`
	// UrgentProb is the probability a request is urgent (default 0).
	UrgentProb float64 `json:"urgent_prob,omitempty"`
}

// Cluster is one leaf of a topology scenario: agents sharing a local
// bus whose winner competes at the root.
type Cluster struct {
	// Protocol is the cluster's local arbitration protocol; empty
	// means the topology's local_protocol.
	Protocol string `json:"protocol,omitempty"`
	// Agents are the cluster's agent groups.
	Agents []Group `json:"agents"`
}

// Topology describes the hierarchical form: at least two clusters
// whose local winners compete at the root bus under the scenario's
// top-level protocol.
type Topology struct {
	// LocalProtocol is the default local protocol of clusters that do
	// not name their own.
	LocalProtocol string `json:"local_protocol,omitempty"`
	// Clusters are the leaf clusters, in identity order.
	Clusters []Cluster `json:"clusters"`
}

// File is the on-disk scenario format. Set exactly one of Agents
// (flat bus) and Topology (arbitration tree).
type File struct {
	Name      string    `json:"name"`
	Protocol  string    `json:"protocol"`
	Seed      uint64    `json:"seed,omitempty"`
	Batches   int       `json:"batches,omitempty"`
	BatchSize int       `json:"batch_size,omitempty"`
	Service   float64   `json:"service,omitempty"`
	ArbOvh    float64   `json:"arb_overhead,omitempty"`
	Agents    []Group   `json:"agents,omitempty"`
	Topology  *Topology `json:"topology,omitempty"`
}

// Load parses and validates a scenario from r.
func Load(r io.Reader) (*File, error) {
	var f File
	if err := decodeStrict(r, &f); err != nil {
		return nil, err
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// decodeStrict decodes JSON rejecting unknown fields, and reports
// parse failures with the offending field path and line:column —
// "line 5:21: field agents.load: ..." instead of a bare json error.
func decodeStrict(r io.Reader, v any) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return describeJSONError(raw, err, dec.InputOffset())
	}
	return nil
}

// describeJSONError rewraps an encoding/json error with location (and
// field path, when the error carries one). inputOff is the decoder's
// position when the error surfaced — the best anchor for errors that
// carry no offset of their own, like unknown-field rejections.
func describeJSONError(raw []byte, err error, inputOff int64) error {
	switch e := err.(type) {
	case *json.SyntaxError:
		l, c := lineCol(raw, e.Offset)
		return fmt.Errorf("scenario: line %d:%d: %w", l, c, err)
	case *json.UnmarshalTypeError:
		l, c := lineCol(raw, e.Offset)
		if e.Field != "" {
			return fmt.Errorf("scenario: line %d:%d: field %s: cannot unmarshal %s into %s",
				l, c, e.Field, e.Value, e.Type)
		}
		return fmt.Errorf("scenario: line %d:%d: %w", l, c, err)
	default:
		// Unknown-field rejections surface only after the decoder has
		// consumed the field's value, so InputOffset overshoots; point
		// at the field name itself when it appears in the input.
		if name, ok := strings.CutPrefix(err.Error(), `json: unknown field "`); ok {
			name = strings.TrimSuffix(name, `"`)
			if off := bytes.Index(raw, []byte(`"`+name+`"`)); off >= 0 {
				inputOff = int64(off)
			}
		}
		l, c := lineCol(raw, inputOff)
		return fmt.Errorf("scenario: line %d:%d: %w", l, c, err)
	}
}

// lineCol converts a byte offset into 1-based line and column.
func lineCol(raw []byte, off int64) (line, col int) {
	if off < 0 {
		off = 0
	}
	if off > int64(len(raw)) {
		off = int64(len(raw))
	}
	line = 1
	last := 0
	for i, b := range raw[:off] {
		if b == '\n' {
			line++
			last = i + 1
		}
	}
	return line, int(off) - last + 1
}

// validateGroups checks one agent-group list; where names the list in
// errors ("" for the flat form, "cluster N: " in topology form). It
// returns the group list's agent count.
func (f *File) validateGroups(where string, groups []Group) (int, error) {
	total := 0
	for i, g := range groups {
		if g.Count < 1 {
			return 0, fmt.Errorf("scenario %q: %sgroup %d: count %d < 1", f.Name, where, i, g.Count)
		}
		if g.Load <= 0 || g.Load >= 1 {
			return 0, fmt.Errorf("scenario %q: %sgroup %d: per-agent load %v outside (0,1)", f.Name, where, i, g.Load)
		}
		if g.CV != nil && *g.CV < 0 {
			return 0, fmt.Errorf("scenario %q: %sgroup %d: cv %v < 0", f.Name, where, i, *g.CV)
		}
		if g.UrgentProb < 0 || g.UrgentProb > 1 {
			return 0, fmt.Errorf("scenario %q: %sgroup %d: urgent_prob %v outside [0,1]", f.Name, where, i, g.UrgentProb)
		}
		total += g.Count
	}
	return total, nil
}

// Validate checks the scenario's invariants.
func (f *File) Validate() error {
	if f.Protocol == "" {
		return fmt.Errorf("scenario %q: protocol required", f.Name)
	}
	if _, err := core.ByName(f.Protocol); err != nil {
		return fmt.Errorf("scenario %q: %w", f.Name, err)
	}
	if f.Topology != nil && len(f.Agents) > 0 {
		return fmt.Errorf("scenario %q: set agents or topology, not both", f.Name)
	}
	total := 0
	switch {
	case f.Topology != nil:
		t := f.Topology
		if len(t.Clusters) < 2 {
			return fmt.Errorf("scenario %q: topology needs at least 2 clusters, got %d", f.Name, len(t.Clusters))
		}
		if t.LocalProtocol != "" {
			if _, err := core.ByName(t.LocalProtocol); err != nil {
				return fmt.Errorf("scenario %q: local_protocol: %w", f.Name, err)
			}
		}
		for ci := range t.Clusters {
			c := &t.Clusters[ci]
			proto := c.Protocol
			if proto == "" {
				proto = t.LocalProtocol
			}
			if proto == "" {
				return fmt.Errorf("scenario %q: cluster %d: no protocol (set cluster protocol or local_protocol)", f.Name, ci)
			}
			if _, err := core.ByName(proto); err != nil {
				return fmt.Errorf("scenario %q: cluster %d: %w", f.Name, ci, err)
			}
			if len(c.Agents) == 0 {
				return fmt.Errorf("scenario %q: cluster %d: at least one agent group required", f.Name, ci)
			}
			n, err := f.validateGroups(fmt.Sprintf("cluster %d: ", ci), c.Agents)
			if err != nil {
				return err
			}
			total += n
		}
	case len(f.Agents) > 0:
		var err error
		total, err = f.validateGroups("", f.Agents)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("scenario %q: at least one agent group required", f.Name)
	}
	if total < 2 {
		return fmt.Errorf("scenario %q: need at least 2 agents, got %d", f.Name, total)
	}
	if f.Service < 0 || f.ArbOvh < 0 {
		return fmt.Errorf("scenario %q: negative timing parameters", f.Name)
	}
	// Compare the effective timing values (zero means the simulator's
	// defaults, 1.0 service and 0.5 overhead): the overhead must not
	// exceed the service time or the simulator will reject the config.
	service, arbOvh := f.Service, f.ArbOvh
	if service == 0 {
		service = 1.0
	}
	if arbOvh == 0 {
		arbOvh = 0.5
	}
	if arbOvh > service {
		return fmt.Errorf("scenario %q: arbitration overhead %v exceeds service %v", f.Name, arbOvh, service)
	}
	return nil
}

// groups yields every agent group in identity order, regardless of
// form.
func (f *File) groups(visit func(g *Group)) {
	if f.Topology != nil {
		for ci := range f.Topology.Clusters {
			for gi := range f.Topology.Clusters[ci].Agents {
				visit(&f.Topology.Clusters[ci].Agents[gi])
			}
		}
		return
	}
	for gi := range f.Agents {
		visit(&f.Agents[gi])
	}
}

// N returns the total agent count.
func (f *File) N() int {
	n := 0
	f.groups(func(g *Group) { n += g.Count })
	return n
}

// TotalLoad returns the summed offered load.
func (f *File) TotalLoad() float64 {
	t := 0.0
	f.groups(func(g *Group) { t += float64(g.Count) * g.Load })
	return t
}

// Spec returns the scenario's arbitration tree, or nil for the flat
// form. Valid only after a successful Validate.
func (f *File) Spec() *topo.Spec {
	if f.Topology == nil {
		return nil
	}
	children := make([]topo.Spec, len(f.Topology.Clusters))
	for ci := range f.Topology.Clusters {
		c := &f.Topology.Clusters[ci]
		proto := c.Protocol
		if proto == "" {
			proto = f.Topology.LocalProtocol
		}
		n := 0
		for _, g := range c.Agents {
			n += g.Count
		}
		children[ci] = topo.Spec{Protocol: proto, Agents: n}
	}
	return &topo.Spec{Protocol: f.Protocol, Children: children}
}

// Config builds the simulator configuration. It is valid only after a
// successful Validate (Load validates automatically).
func (f *File) Config() bussim.Config {
	service := f.Service
	if service == 0 {
		service = 1.0
	}
	cfg := bussim.Config{
		N:           f.N(),
		Service:     f.Service,
		ArbOverhead: f.ArbOvh,
		Seed:        f.Seed,
		Batches:     f.Batches,
		BatchSize:   f.BatchSize,
	}
	if spec := f.Spec(); spec != nil {
		cfg.Topology = spec
	} else {
		factory, err := core.ByName(f.Protocol)
		if err != nil {
			panic(err) // Validate guarantees the name resolves
		}
		cfg.Protocol = factory
	}
	anyUrgent := false
	f.groups(func(g *Group) {
		if g.UrgentProb > 0 {
			anyUrgent = true
		}
	})
	var urgent []float64
	if anyUrgent {
		urgent = make([]float64, 0, cfg.N)
	}
	inter := make([]dist.Sampler, 0, cfg.N)
	f.groups(func(g *Group) {
		cv := 1.0
		if g.CV != nil {
			cv = *g.CV
		}
		// A sampler is an immutable value, so a group's agents share one.
		s := dist.ByCV(bussim.MeanForLoad(g.Load, service), cv)
		for i := 0; i < g.Count; i++ {
			inter = append(inter, s)
			if anyUrgent {
				urgent = append(urgent, g.UrgentProb)
			}
		}
	})
	cfg.Inter = inter
	cfg.UrgentProb = urgent
	return cfg
}
