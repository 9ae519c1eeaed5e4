package arbd

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"busarb/internal/core"
)

// TestEveryProtocolServes runs every registered protocol, plus a tree
// of RR3 leaves under an RR1 root, through the daemon: six agents
// contend through Acquire/Release, each is granted exactly once,
// /metricz balances grants against requests, and RR3 resources report
// their empty passes.
func TestEveryProtocolServes(t *testing.T) {
	const n = 6
	rcs := make([]ResourceConfig, 0, len(core.Names())+1)
	for _, name := range core.Names() {
		rcs = append(rcs, res(name, n, name))
	}
	tree := treeRes(t, "tree", "3x2", "RR3/RR1")
	rcs = append(rcs, tree)
	d, srv := newTestDaemon(t, rcs...)

	for _, rc := range rcs {
		t.Run(rc.Name, func(t *testing.T) {
			granted := make(chan int, n)
			for agent := 1; agent <= n; agent++ {
				go func(agent int) {
					lease, serr := d.Acquire(context.Background(), rc.Name, agent, 5*time.Second, 0)
					if serr != nil {
						t.Errorf("agent %d: %v", agent, serr)
						granted <- 0
						return
					}
					// Hold the lease across a few bus cycles so the
					// other agents queue behind it.
					time.Sleep(2 * testTick)
					granted <- lease.Agent
					d.Release(rc.Name, lease.Token)
				}(agent)
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
		})
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
	for _, rc := range rcs {
		rm, ok := m.Resources[rc.Name]
		if !ok {
			t.Errorf("%s: missing from /metricz", rc.Name)
			continue
		}
		var grants, requests int64
		for _, a := range rm.Agents {
			grants += a.Grants
			requests += a.Requests
		}
		if grants != n || requests != n {
			t.Errorf("%s: /metricz grants=%d requests=%d, want %d each", rc.Name, grants, requests, n)
		}
		if rc.Protocol == "RR3" || rc.Topo != nil {
			if rm.Repasses == 0 {
				t.Errorf("%s: no repasses reported; a fresh RR3 register makes at least one", rc.Name)
			}
		}
	}
	if len(m.Resources) != len(rcs) {
		t.Errorf("/metricz lists %d resources, want %d", len(m.Resources), len(rcs))
	}
}
