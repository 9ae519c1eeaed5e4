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

// TestDiscardedGrantReArbitrates pins the discarded-grant path: a line
// whose waiters all left stays asserted, so the arbiter can grant it,
// and the bus must then arbitrate again, in the same cycle, among the
// lines still asserted. Under FP the timed-out agent 3 outranks the
// patient agent 2.
func TestDiscardedGrantReArbitrates(t *testing.T) {
	d, _ := newTestDaemon(t, res("bus", 3, "FP"))
	s := d.shards["bus"]
	ctx := context.Background()
	holder, serr := d.Acquire(ctx, "bus", 1, 0, 0)
	if serr != nil {
		t.Fatal(serr)
	}
	patient := make(chan acquireReply, 1)
	go func() {
		lease, serr := d.Acquire(ctx, "bus", 2, 0, 0)
		patient <- acquireReply{lease, serr}
	}()
	waitQueued(t, s, 2)
	if _, serr := d.Acquire(ctx, "bus", 3, 50*time.Millisecond, 0); serr == nil || serr.code != codeDeadline {
		t.Fatalf("agent 3's queued acquire = %v, want 408", serr)
	}
	if serr := d.Release("bus", holder.Token); serr != nil {
		t.Fatal(serr)
	}
	select {
	case rep := <-patient:
		if rep.err != nil || rep.lease.Agent != 2 {
			t.Fatalf("patient waiter got %+v, %v; want agent 2's lease", rep.lease, rep.err)
		}
		d.Release("bus", rep.lease.Token)
	case <-time.After(2 * time.Second):
		t.Fatal("agent 2 was not granted after the discarded grant: the bus stalled")
	}
	var arbitrations, grants3 int64
	s.probe.Do(func() { arbitrations, grants3 = s.tally.arbitrations, s.tally.grants[3] })
	if arbitrations != 3 || grants3 != 0 {
		t.Errorf("arbitrations = %d, agent 3 grants = %d; want 3 and 0 (holder, discarded grant to 3, agent 2)",
			arbitrations, grants3)
	}
}

// TestAbandonedWaiterFreesQueueSlot pins that a queued waiter whose
// client goes away is answered 408 and leaves the queue: with room for
// one waiter, the next acquire is admitted rather than answered 503.
func TestAbandonedWaiterFreesQueueSlot(t *testing.T) {
	rc := res("bus", 4, "RR1")
	rc.MaxQueue = 1
	d, _ := newTestDaemon(t, rc)
	s := d.shards["bus"]
	holder, serr := d.Acquire(context.Background(), "bus", 1, 0, 0)
	if serr != nil {
		t.Fatal(serr)
	}
	ctx, cancel := context.WithCancel(context.Background())
	abandoned := make(chan *statusError, 1)
	go func() {
		_, serr := d.Acquire(ctx, "bus", 2, 0, 0)
		abandoned <- serr
	}()
	waitQueued(t, s, 2)
	cancel()
	select {
	case serr := <-abandoned:
		if serr == nil || serr.code != codeDeadline {
			t.Fatalf("abandoned waiter = %v, want 408", serr)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("abandoned waiter was never answered")
	}
	next := make(chan acquireReply, 1)
	go func() {
		lease, serr := d.Acquire(context.Background(), "bus", 3, 0, 0)
		next <- acquireReply{lease, serr}
	}()
	waitQueued(t, s, 3)
	if serr := d.Release("bus", holder.Token); serr != nil {
		t.Fatal(serr)
	}
	if rep := <-next; rep.err != nil || rep.lease.Agent != 3 {
		t.Fatalf("next waiter got %+v, %v; want agent 3's lease", rep.lease, rep.err)
	}
}
