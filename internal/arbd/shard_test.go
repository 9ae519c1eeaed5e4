package arbd

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"busarb/internal/core"
	"busarb/internal/obs"
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
	m := d.Metrics()["bus"]
	arbitrations, grants3 := m.Arbitrations, m.Agents[2].Grants
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

// TestShardInputsAtChosenTimes drives a shard's inputs by hand, with no
// loop and no clock: each input takes the instant it happens at, and
// the events it causes are stamped with that instant's offset from the
// epoch. Two RR1 agents with a 5s TTL are admitted at 1s, a tick grants
// one at 1.001s, its lease lapses at exactly 6.001s and not 1ns before,
// and the same tick grants the other, which is released at 7s.
func TestShardInputsAtChosenTimes(t *testing.T) {
	epoch := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(d time.Duration) time.Time { return epoch.Add(d) }
	newTestShard := func(rc ResourceConfig, probe obs.Probe) *shard {
		rc = rc.withDefaults()
		f, err := core.ByName(rc.Protocol)
		if err != nil {
			t.Fatal(err)
		}
		return newShard(rc, f(rc.Agents), epoch, probe)
	}
	waiter := func(ctx context.Context, agent int) *acquireReq {
		return &acquireReq{agent: agent, ctx: ctx, reply: make(chan acquireReply, 1)}
	}
	// granted returns the lease the shard answered req with, or fails.
	granted := func(t *testing.T, req *acquireReq) Lease {
		t.Helper()
		select {
		case rep := <-req.reply:
			if rep.err != nil {
				t.Fatalf("agent %d answered %v, want a lease", req.agent, rep.err)
			}
			return rep.lease
		default:
			t.Fatalf("agent %d has no answer", req.agent)
		}
		return Lease{}
	}

	t.Run("lease lapses at its TTL and events carry their input's time", func(t *testing.T) {
		var rec obs.Buffer
		rc := res("bus", 2, "RR1")
		rc.TTL = 5 * time.Second
		s := newTestShard(rc, &rec)
		a, b := waiter(context.Background(), 1), waiter(context.Background(), 2)
		s.admit(a, at(time.Second))
		s.admit(b, at(time.Second))
		s.tick(at(1001 * time.Millisecond))
		first, second := a, b
		if len(a.reply) == 0 {
			first, second = b, a
		}
		lease := granted(t, first)
		if lease.TTL != 5*time.Second {
			t.Fatalf("lease TTL %v, want 5s", lease.TTL)
		}
		s.tick(at(6001*time.Millisecond - 1))
		if s.leaseToken != lease.Token || len(second.reply) != 0 {
			t.Fatal("the lease lapsed 1ns before its TTL")
		}
		s.tick(at(6001 * time.Millisecond))
		next := granted(t, second)
		if !s.release(next.Token, at(7*time.Second)) {
			t.Fatal("releasing the second lease failed")
		}

		want := []struct {
			kind obs.Kind
			at   time.Duration
		}{
			{obs.RequestIssued, time.Second},
			{obs.RequestIssued, time.Second},
			{obs.ArbitrationResolve, 1001 * time.Millisecond},
			{obs.ServiceStart, 1001 * time.Millisecond},
			{obs.ServiceEnd, 6001 * time.Millisecond},
			{obs.ArbitrationResolve, 6001 * time.Millisecond},
			{obs.ServiceStart, 6001 * time.Millisecond},
			{obs.ServiceEnd, 7 * time.Second},
		}
		events := rec.Events()
		if len(events) != len(want) {
			t.Fatalf("got %d events, want %d: %v", len(events), len(want), events)
		}
		for i, e := range events {
			if e.Kind != want[i].kind || e.Time != want[i].at.Seconds() {
				t.Errorf("event %d = %v at %v, want %v at %v", i, e.Kind, e.Time, want[i].kind, want[i].at.Seconds())
			}
		}
	})

	t.Run("cancel taken before its acquire", func(t *testing.T) {
		s := newTestShard(res("bus", 2, "RR1"), nil)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		req := waiter(ctx, 1)
		s.cancel(req, at(time.Second))
		if len(req.reply) != 0 {
			t.Fatal("cancel answered an acquire the shard never admitted")
		}
		s.admit(req, at(time.Second))
		if rep := <-req.reply; rep.err == nil || rep.err.code != codeDeadline {
			t.Fatalf("admit answered %+v, want 408", rep)
		}
		if s.nwait != 0 || s.bus.Line(1) {
			t.Errorf("the dead acquire was queued: %d waiters, line up %v", s.nwait, s.bus.Line(1))
		}
	})
}
