package arbd

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"busarb/internal/topo"
)

// treeRes returns a tree-arbitrated ResourceConfig with test-speed
// defaults.
func treeRes(t *testing.T, name, dims, protos string) ResourceConfig {
	t.Helper()
	spec, err := topo.ParseUniform(dims, protos)
	if err != nil {
		t.Fatal(err)
	}
	return ResourceConfig{Name: name, Topo: spec, Tick: testTick}
}

// TestTreeResource drives acquire/release against a hierarchical
// resource: agents in different clusters are granted in turn, the
// lease carries the right identity, and /metricz reports the composite
// protocol name.
func TestTreeResource(t *testing.T) {
	d, srv := newTestDaemon(t, treeRes(t, "bus", "4x2", "RR1/FCFS2"))

	// Agents 1 (cluster 0) and 6 (cluster 1) both win eventually.
	for _, agent := range []int{1, 6} {
		code, lease := httpAcquire(t, srv.URL, "bus", agent, "")
		if code != http.StatusOK {
			t.Fatalf("agent %d acquire status %d, want 200", agent, code)
		}
		if lease.Agent != agent || lease.Resource != "bus" {
			t.Fatalf("bad lease %+v", lease)
		}
		if code := httpRelease(t, srv.URL, "bus", lease.Token); code != http.StatusOK {
			t.Fatalf("release status %d, want 200", code)
		}
	}

	// The daemon-level identity range comes from the tree's total.
	if _, serr := d.Acquire(context.Background(), "bus", 9, time.Second, 0); serr == nil || serr.code != codeBadRequest {
		t.Fatalf("agent beyond tree total = %v, want 400", serr)
	}

	resp, err := http.Get(srv.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Resources map[string]ResourceMetrics `json:"resources"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	bus := m.Resources["bus"]
	if bus.Protocol != "FCFS2(2xRR1:4)" {
		t.Errorf("metricz protocol = %q, want the composite tree name", bus.Protocol)
	}
	if len(bus.Agents) != 8 {
		t.Errorf("metricz agents = %d, want 8", len(bus.Agents))
	}
}

// TestTreeContention runs concurrent acquires across clusters and
// checks everyone is eventually granted exactly once.
func TestTreeContention(t *testing.T) {
	d, _ := newTestDaemon(t, treeRes(t, "bus", "2x3", "RR3/RR1"))
	const n = 6
	granted := make(chan int, n)
	for agent := 1; agent <= n; agent++ {
		agent := agent
		go func() {
			lease, serr := d.Acquire(context.Background(), "bus", agent, 5*time.Second, 0)
			if serr != nil {
				t.Errorf("agent %d: %v", agent, serr)
				granted <- 0
				return
			}
			granted <- lease.Agent
			d.Release("bus", lease.Token)
		}()
	}
	seen := make(map[int]bool)
	for i := 0; i < n; i++ {
		select {
		case a := <-granted:
			if seen[a] {
				t.Errorf("agent %d granted twice", a)
			}
			seen[a] = true
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for grants")
		}
	}
	for agent := 1; agent <= n; agent++ {
		if !seen[agent] {
			t.Errorf("agent %d never granted", agent)
		}
	}
}

// TestTreeResourceValidate pins the config errors for tree resources.
func TestTreeResourceValidate(t *testing.T) {
	leaf := &topo.Spec{Protocol: "RR1", Agents: 4}
	tree := &topo.Spec{Protocol: "FCFS2", Children: []topo.Spec{
		{Protocol: "RR1", Agents: 4}, {Protocol: "RR1", Agents: 4}}}
	cases := []struct {
		name string
		rc   ResourceConfig
		want string
	}{
		{"both", ResourceConfig{Name: "r", Protocol: "RR1", Topo: leaf}, "not both"},
		{"agents mismatch", ResourceConfig{Name: "r", Agents: 5, Topo: tree}, "does not match"},
		{"bad proto", ResourceConfig{Name: "r",
			Topo: &topo.Spec{Protocol: "LRU", Agents: 4}}, "unknown protocol"},
		{"malformed tree", ResourceConfig{Name: "r",
			Topo: &topo.Spec{Protocol: "FCFS2", Children: []topo.Spec{
				{Protocol: "RR1", Agents: 4}}}}, "at least 2 children"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := Config{Resources: []ResourceConfig{c.rc}}.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Validate = %v, want error containing %q", err, c.want)
			}
		})
	}
	// Agents may be left 0 (filled from the tree) or given exactly.
	for _, agents := range []int{0, 8} {
		rc := ResourceConfig{Name: "r", Agents: agents, Topo: tree}
		if err := (Config{Resources: []ResourceConfig{rc}}).Validate(); err != nil {
			t.Errorf("Agents=%d: Validate = %v, want ok", agents, err)
		}
	}
	// Every registered protocol serves, RR2 included.
	rc := ResourceConfig{Name: "r", Topo: &topo.Spec{Protocol: "RR2", Agents: 4}}
	if err := (Config{Resources: []ResourceConfig{rc}}).Validate(); err != nil {
		t.Errorf("RR2 leaf: Validate = %v, want ok", err)
	}
}
