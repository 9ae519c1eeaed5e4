package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"busarb/client"
	"busarb/internal/arbd"
	"busarb/internal/arbd/codec"
)

// testTick matches the arbd suite's convention: fast enough to keep
// tests quick, coarse enough to survive scheduler noise.
const testTick = 200 * time.Microsecond

// callCtx bounds a test's client calls: a reply the relay loses fails
// the call within 30s, and the test names it, instead of hanging the
// package until go test's own timeout.
func callCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func res(name string, agents int, protocol string) arbd.ResourceConfig {
	return arbd.ResourceConfig{Name: name, Agents: agents, Protocol: protocol, Tick: testTick}
}

// testCluster is a set of in-process nodes serving real listeners.
type testCluster struct {
	nodes map[string]*Node
	addrs map[string]string // member name -> host:port of the binary listener
	names []string
}

// startCluster builds and serves one node per name, all sharing the
// resource list and config (mut adjusts each node's Config before
// New). Every listener is bound before any node starts, so members
// know each other's real addresses.
func startCluster(t *testing.T, names []string, rcs []arbd.ResourceConfig, mut func(*Config)) *testCluster {
	t.Helper()
	lns := make(map[string]net.Listener, len(names))
	members := make([]Member, 0, len(names))
	for _, name := range names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[name] = ln
		members = append(members, Member{Name: name, Addr: "tcp://" + ln.Addr().String()})
	}
	tc := &testCluster{nodes: map[string]*Node{}, addrs: map[string]string{}, names: names}
	for _, name := range names {
		cfg := Config{Self: name, Members: members, Resources: rcs}
		if mut != nil {
			mut(&cfg)
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tc.nodes[name] = n
		tc.addrs[name] = lns[name].Addr().String()
		go n.Serve(lns[name])
	}
	t.Cleanup(tc.close) // Node.Close is idempotent; tests may close early
	return tc
}

func (tc *testCluster) close() {
	for _, name := range tc.names {
		tc.nodes[name].Close()
	}
}

// owner returns the member name owning resource (identical on every
// node — the ring is deterministic).
func (tc *testCluster) owner(t *testing.T, resource string) string {
	t.Helper()
	m, ok := tc.nodes[tc.names[0]].Owner(resource)
	if !ok {
		t.Fatalf("no owner for %q", resource)
	}
	return m.Name
}

// nonOwner returns some member that does not own resource.
func (tc *testCluster) nonOwner(t *testing.T, resource string) string {
	t.Helper()
	owner := tc.owner(t, resource)
	for _, name := range tc.names {
		if name != owner {
			return name
		}
	}
	t.Fatalf("single-member cluster cannot have a non-owner for %q", resource)
	return ""
}

// TestClusterSmoke is the make-check cluster gate: three in-process
// nodes, and a full acquire/release round trip for every resource
// through a single node — local for the resources it owns, forwarded
// for the rest — under the race detector.
func TestClusterSmoke(t *testing.T) {
	rcs := []arbd.ResourceConfig{res("bus", 4, "RR1"), res("disk", 4, "FCFS2"), res("dma", 4, "RR1")}
	tc := startCluster(t, []string{"a", "b", "c"}, rcs, nil)

	entry := tc.nodes["a"]
	c, err := client.Dial("tcp://" + tc.addrs["a"])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := callCtx(t)
	foreign := 0
	for _, rc := range rcs {
		if !entry.Owns(rc.Name) {
			foreign++
		}
		lease, err := c.Acquire(ctx, rc.Name, 1, client.AcquireOptions{})
		if err != nil {
			t.Fatalf("acquire %q via a: %v", rc.Name, err)
		}
		if lease.Resource != rc.Name || lease.Token == "" || lease.TTL <= 0 {
			t.Errorf("lease for %q = %+v, want granted with token and TTL", rc.Name, lease)
		}
		if err := c.Release(ctx, lease); err != nil {
			t.Fatalf("release %q via a: %v", rc.Name, err)
		}
	}
	// The ring spreads three resources over three members, so at least
	// one round trip above was forwarded; the node's metrics must say
	// so (acquire + release per foreign resource).
	if foreign == 0 {
		t.Skip("ring put every resource on the entry node; forwarding not exercisable with this seed")
	}
	fm := entry.ForwardMetrics()
	if want := int64(2 * foreign); fm.Forwards != want {
		t.Errorf("entry node forwards = %d, want %d (%d foreign resources)", fm.Forwards, want, foreign)
	}
	if fm.Errors != 0 || fm.Shed != 0 {
		t.Errorf("forward metrics = %+v, want no errors or sheds", fm)
	}
	if fm.LatencyMax <= 0 {
		t.Errorf("forward latency max = %v, want a positive sample", fm.LatencyMax)
	}
}

// TestForwardingEquivalence pins that a routed acquire is the same
// protocol object as a direct one: same resource, same agent echo,
// same TTL contract, a workable token — and the daemon state they
// leave behind is identical (both leases release cleanly, in either
// order, through either path).
func TestForwardingEquivalence(t *testing.T) {
	rcs := []arbd.ResourceConfig{res("bus", 4, "RR1")}
	tc := startCluster(t, []string{"a", "b", "c"}, rcs, nil)
	owner, other := tc.owner(t, "bus"), tc.nonOwner(t, "bus")

	direct, err := client.Dial("tcp://" + tc.addrs[owner])
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	routed, err := client.Dial("tcp://" + tc.addrs[other])
	if err != nil {
		t.Fatal(err)
	}
	defer routed.Close()

	ctx := callCtx(t)
	dl, err := direct.Acquire(ctx, "bus", 1, client.AcquireOptions{})
	if err != nil {
		t.Fatalf("direct acquire: %v", err)
	}
	if err := direct.Release(ctx, dl); err != nil {
		t.Fatalf("direct release: %v", err)
	}
	rl, err := routed.Acquire(ctx, "bus", 1, client.AcquireOptions{})
	if err != nil {
		t.Fatalf("routed acquire: %v", err)
	}
	if rl.Resource != dl.Resource || rl.Agent != dl.Agent || rl.TTL != dl.TTL {
		t.Errorf("routed lease %+v differs from direct lease %+v beyond the token", rl, dl)
	}
	if rl.Token == "" || rl.Token == dl.Token {
		t.Errorf("routed token %q, want fresh non-empty", rl.Token)
	}
	// Cross-path release: the lease came through the forwarder, the
	// release goes direct — same shard, so it must work.
	if err := direct.Release(ctx, rl); err != nil {
		t.Fatalf("direct release of routed lease: %v", err)
	}
	// And a stale release answers the same 404 on both paths.
	for name, c := range map[string]*client.Client{"direct": direct, "routed": routed} {
		err := c.Release(ctx, rl)
		var ce *client.Error
		if !asClientError(err, &ce) || ce.Code != 404 {
			t.Errorf("%s stale release: %v, want 404 *client.Error", name, err)
		}
	}
}

func asClientError(err error, ce **client.Error) bool { return errors.As(err, ce) }

// TestRoutedFlagOnWire pins the wire contract of docs/WIRE.md's routed
// frames, below the client library: a plain acquire sent to a
// non-owner comes back FlagRouted with an owner-hint route naming the
// real owner, while the same exchange with the owner carries no
// routing at all.
func TestRoutedFlagOnWire(t *testing.T) {
	rcs := []arbd.ResourceConfig{res("bus", 4, "RR1")}
	tc := startCluster(t, []string{"a", "b", "c"}, rcs, nil)
	owner, other := tc.owner(t, "bus"), tc.nonOwner(t, "bus")

	dial := func(t *testing.T, addr string) (*codec.Writer, *codec.Reader) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return codec.NewWriter(conn), codec.NewReader(conn)
	}
	exchange := func(t *testing.T, w *codec.Writer, r *codec.Reader, req *codec.Frame) codec.Frame {
		t.Helper()
		if err := w.WriteFrame(req); err != nil {
			t.Fatal(err)
		}
		var resp codec.Frame
		if err := r.Next(&resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Through the non-owner: the grant must carry FlagRouted and an
	// owner hint pointing at the owner's advertised address.
	w, r := dial(t, tc.addrs[other])
	resp := exchange(t, w, r, &codec.Frame{
		Type: codec.TAcquire, Corr: 7, Agent: 1, Resource: []byte("bus"),
	})
	if resp.Type != codec.TGrant || resp.Corr != 7 {
		t.Fatalf("routed response = type %v corr %d, want TGrant corr 7 (code %d msg %q)",
			resp.Type, resp.Corr, resp.Code, resp.Msg)
	}
	if resp.Flags&codec.FlagRouted == 0 {
		t.Fatal("grant relayed through a non-owner is missing FlagRouted")
	}
	hops, ownerName, ownerAddr, ok := codec.ParseOwnerRoute(resp.Route)
	if !ok {
		t.Fatalf("routed grant's route field %x does not parse as an owner hint", resp.Route)
	}
	if hops != 1 {
		t.Errorf("owner hint hops = %d, want 1 for a single forward", hops)
	}
	if string(ownerName) != owner || string(ownerAddr) != "tcp://"+tc.addrs[owner] {
		t.Errorf("owner hint = %q at %q, want %q at %q",
			ownerName, ownerAddr, owner, "tcp://"+tc.addrs[owner])
	}

	// The release through the non-owner is routed and flagged the same
	// way (and frees the lease for the direct leg below).
	resp = exchange(t, w, r, &codec.Frame{
		Type: codec.TRelease, Corr: 8, Resource: []byte("bus"), Token: append([]byte(nil), resp.Token...),
	})
	if resp.Type != codec.TReleased || resp.Corr != 8 {
		t.Fatalf("routed release response = type %v corr %d (code %d msg %q), want TReleased corr 8",
			resp.Type, resp.Corr, resp.Code, resp.Msg)
	}
	if resp.Flags&codec.FlagRouted == 0 {
		t.Error("released relayed through a non-owner is missing FlagRouted")
	}
	if _, _, _, ok := codec.ParseOwnerRoute(resp.Route); !ok {
		t.Errorf("routed released's route field %x does not parse as an owner hint", resp.Route)
	}

	// Through the owner: no routing residue on the wire.
	w, r = dial(t, tc.addrs[owner])
	resp = exchange(t, w, r, &codec.Frame{
		Type: codec.TAcquire, Corr: 9, Agent: 2, Resource: []byte("bus"),
	})
	if resp.Type != codec.TGrant {
		t.Fatalf("direct response = type %v, want TGrant (code %d msg %q)", resp.Type, resp.Code, resp.Msg)
	}
	if resp.Flags&codec.FlagRouted != 0 || len(resp.Route) != 0 {
		t.Errorf("direct grant carries routing: flags %#x route %x", resp.Flags, resp.Route)
	}
}

// TestForwardHopLimitAndBadRoute pins the two local shed paths on a
// node asked to forward a frame that already crossed the cluster: a
// hop count at the limit answers 503 instead of bouncing on, and a
// route field that does not parse answers 400. Both count as sheds in
// the metrics, not forwards.
func TestForwardHopLimitAndBadRoute(t *testing.T) {
	rcs := []arbd.ResourceConfig{res("bus", 4, "RR1")}
	tc := startCluster(t, []string{"a", "b", "c"}, rcs, nil)
	other := tc.nonOwner(t, "bus")

	conn, err := net.Dial("tcp", tc.addrs[other])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w, r := codec.NewWriter(conn), codec.NewReader(conn)

	// Already at the hop limit: one more hop would exceed it.
	route := codec.AppendRequestRoute(nil, codec.RouteHopLimit, []byte("elsewhere"), 99)
	if err := w.WriteFrame(&codec.Frame{
		Type: codec.TAcquire, Flags: codec.FlagRouted, Corr: 11, Agent: 1,
		Resource: []byte("bus"), Route: route,
	}); err != nil {
		t.Fatal(err)
	}
	var resp codec.Frame
	if err := r.Next(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Type != codec.TError || resp.Code != 503 || !strings.Contains(string(resp.Msg), "hop limit") {
		t.Errorf("hop-limit response = type %v code %d msg %q, want TError 503 naming the hop limit",
			resp.Type, resp.Code, resp.Msg)
	}
	if resp.Corr != 11 || resp.Flags&codec.FlagRouted == 0 {
		t.Errorf("hop-limit response corr %d flags %#x, want corr 11 with FlagRouted", resp.Corr, resp.Flags)
	}

	// A routed frame whose route field is garbage.
	if err := w.WriteFrame(&codec.Frame{
		Type: codec.TAcquire, Flags: codec.FlagRouted, Corr: 12, Agent: 1,
		Resource: []byte("bus"), Route: []byte{0xff},
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.Next(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Type != codec.TError || resp.Code != 400 || !strings.Contains(string(resp.Msg), "route") {
		t.Errorf("bad-route response = type %v code %d msg %q, want TError 400 naming the route",
			resp.Type, resp.Code, resp.Msg)
	}

	fm := tc.nodes[other].ForwardMetrics()
	if fm.Shed != 2 || fm.Forwards != 0 {
		t.Errorf("forward metrics after two local sheds = %+v, want Shed 2 Forwards 0", fm)
	}
}

// TestForwardQueueFull pins the bounded forward queue: with
// MaxInflight 1 and the owner's shard holding the only grant, a burst
// of forwarded acquires overflows the per-peer queue and the overflow
// answers 503 naming the queue.
func TestForwardQueueFull(t *testing.T) {
	rcs := []arbd.ResourceConfig{res("bus", 8, "RR1")}
	tc := startCluster(t, []string{"a", "b", "c"}, rcs, func(c *Config) { c.MaxInflight = 1 })
	owner, other := tc.owner(t, "bus"), tc.nonOwner(t, "bus")

	// Park a lease on the owner so forwarded acquires stay in flight.
	holder, err := client.Dial("tcp://" + tc.addrs[owner])
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	ctx := callCtx(t)
	lease, err := holder.Acquire(ctx, "bus", 1, client.AcquireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Release(ctx, lease)

	// Two concurrent acquires race for the single forward slot: exactly
	// one occupies it (and blocks behind the parked lease), the other
	// must be shed with 503 — the client retry layer must not treat the
	// shed as transient.
	c, err := client.Dial("tcp://" + tc.addrs[other])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	results := make(chan error, 2)
	for agent := 2; agent <= 3; agent++ {
		go func(agent int) {
			_, err := c.Acquire(ctx, "bus", agent, client.AcquireOptions{})
			results <- err
		}(agent)
	}
	var overflowErr error
	select {
	case overflowErr = <-results:
	case <-time.After(5 * time.Second):
		t.Fatal("never saw the forward queue overflow")
	}
	var ce *client.Error
	if !asClientError(overflowErr, &ce) || ce.Code != 503 || !strings.Contains(ce.Msg, "forward queue") {
		t.Fatalf("overflow error = %v, want 503 naming the forward queue", overflowErr)
	}
	// Free the resource; the slot's occupant must be granted.
	if err := holder.Release(ctx, lease); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-results:
		if err != nil {
			t.Fatalf("in-flight forward failed after release: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight forward never completed after release")
	}
	if fm := tc.nodes[other].ForwardMetrics(); fm.Shed < 1 {
		t.Errorf("forward metrics = %+v, want at least one shed", fm)
	}
}

// TestClusterzAgreement pins the /clusterz document: every member
// publishes the same ring parameters, member list, and owner map, and
// the document names its publisher.
func TestClusterzAgreement(t *testing.T) {
	rcs := []arbd.ResourceConfig{res("bus", 4, "RR1"), res("disk", 4, "FCFS2")}
	tc := startCluster(t, []string{"a", "b", "c"}, rcs, func(c *Config) { c.Seed = 42 })

	var first Clusterz
	for i, name := range tc.names {
		srv := httptest.NewServer(tc.nodes[name].Handler())
		resp, err := http.Get(srv.URL + "/clusterz")
		if err != nil {
			t.Fatal(err)
		}
		var cz Clusterz
		if err := json.NewDecoder(resp.Body).Decode(&cz); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		srv.Close()
		if cz.Self != name {
			t.Errorf("member %s publishes self %q", name, cz.Self)
		}
		if cz.Seed != 42 || cz.VNodes != DefaultVNodes {
			t.Errorf("member %s ring params = seed %d vnodes %d, want 42/%d", name, cz.Seed, cz.VNodes, DefaultVNodes)
		}
		if len(cz.Members) != 3 || len(cz.Owners) != 2 {
			t.Fatalf("member %s document has %d members, %d owners", name, len(cz.Members), len(cz.Owners))
		}
		cz.Self = ""
		if i == 0 {
			first = cz
			continue
		}
		if fmt.Sprint(cz) != fmt.Sprint(first) {
			t.Errorf("member %s topology disagrees:\n%v\nvs\n%v", name, cz, first)
		}
	}
}

// TestHTTPMisdirected pins the HTTP guard: a node answers acquires for
// foreign resources with 421 and an envelope naming the owner, and
// still serves everything it owns.
func TestHTTPMisdirected(t *testing.T) {
	rcs := []arbd.ResourceConfig{res("bus", 4, "RR1")}
	tc := startCluster(t, []string{"a", "b", "c"}, rcs, nil)
	owner, other := tc.owner(t, "bus"), tc.nonOwner(t, "bus")

	srv := httptest.NewServer(tc.nodes[other].Handler())
	defer srv.Close()
	resp, err := http.PostForm(srv.URL+"/v1/acquire", map[string][]string{
		"resource": {"bus"}, "agent": {"1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("foreign acquire status = %d, want 421", resp.StatusCode)
	}
	var envelope struct {
		Code  string `json:"code"`
		Error string `json:"error"`
		Owner Member `json:"owner"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Code != "misdirected" || envelope.Owner.Name != owner {
		t.Errorf("envelope = %+v, want code misdirected owner %q", envelope, owner)
	}

	// The owner serves the same request through its full HTTP path.
	osrv := httptest.NewServer(tc.nodes[owner].Handler())
	defer osrv.Close()
	oc, err := client.Dial(osrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer oc.Close()
	ctx := callCtx(t)
	lease, err := oc.Acquire(ctx, "bus", 1, client.AcquireOptions{})
	if err != nil {
		t.Fatalf("owner HTTP acquire: %v", err)
	}
	if err := oc.Release(ctx, lease); err != nil {
		t.Fatalf("owner HTTP release: %v", err)
	}
}

// TestClusterMetricz pins the /metricz cluster section: member counts,
// owned-resource counts, and forward tallies that move when traffic is
// forwarded.
func TestClusterMetricz(t *testing.T) {
	rcs := []arbd.ResourceConfig{res("bus", 4, "RR1")}
	tc := startCluster(t, []string{"a", "b", "c"}, rcs, nil)
	other := tc.nonOwner(t, "bus")

	c, err := client.Dial("tcp://" + tc.addrs[other])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := callCtx(t)
	lease, err := c.Acquire(ctx, "bus", 1, client.AcquireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Release(ctx, lease); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(tc.nodes[other].Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Resources map[string]json.RawMessage `json:"resources"`
		Cluster   struct {
			Self           string         `json:"self"`
			Members        int            `json:"members"`
			OwnedResources int            `json:"owned_resources"`
			Forward        ForwardMetrics `json:"forward"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Cluster.Self != other || doc.Cluster.Members != 3 {
		t.Errorf("cluster section = %+v, want self %q members 3", doc.Cluster, other)
	}
	if doc.Cluster.OwnedResources != 0 {
		t.Errorf("non-owner claims %d owned resources", doc.Cluster.OwnedResources)
	}
	if doc.Cluster.Forward.Forwards != 2 {
		t.Errorf("forwards = %d, want 2 (acquire + release)", doc.Cluster.Forward.Forwards)
	}
	if _, ok := doc.Resources["bus"]; ok {
		t.Errorf("non-owner /metricz lists %q under resources; the owner's shard runs it", "bus")
	}
}

// TestClusterCloseLeaksNothing pins the goroutine hygiene of the whole
// cluster layer: after forwarded traffic (peer connections, relay
// goroutines, read loops all live), closing the clients and every node
// returns the process to its goroutine baseline.
func TestClusterCloseLeaksNothing(t *testing.T) {
	runtime.GC()
	before := runtime.NumGoroutine()

	rcs := []arbd.ResourceConfig{res("bus", 4, "RR1"), res("disk", 4, "FCFS2")}
	tc := startCluster(t, []string{"a", "b", "c"}, rcs, nil)
	c, err := client.Dial("tcp://" + tc.addrs["a"])
	if err != nil {
		t.Fatal(err)
	}
	ctx := callCtx(t)
	for _, rc := range rcs {
		lease, err := c.Acquire(ctx, rc.Name, 1, client.AcquireOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Release(ctx, lease); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	tc.close()

	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after Close\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDialClusterRouting pins the client-side cluster transport
// end-to-end against real nodes: bootstrap from /clusterz sends the
// first call straight to the owner (no forwards anywhere), and the
// lazy path (tcp targets only) learns the owner from the first routed
// response and goes direct from then on.
func TestDialClusterRouting(t *testing.T) {
	rcs := []arbd.ResourceConfig{res("bus", 4, "RR1")}
	tc := startCluster(t, []string{"a", "b", "c"}, rcs, nil)
	owner := tc.owner(t, "bus")
	ctx := callCtx(t)

	totalForwards := func() int64 {
		var sum int64
		for _, name := range tc.names {
			sum += tc.nodes[name].ForwardMetrics().Forwards
		}
		return sum
	}

	// Eager: bootstrap the topology over HTTP, then call. The owner map
	// is pre-loaded, so no node ever forwards.
	hsrv := httptest.NewServer(tc.nodes[tc.nonOwner(t, "bus")].Handler())
	defer hsrv.Close()
	c, err := client.DialCluster([]string{hsrv.URL})
	if err != nil {
		t.Fatal(err)
	}
	lease, err := c.Acquire(ctx, "bus", 1, client.AcquireOptions{})
	if err != nil {
		t.Fatalf("bootstrapped acquire: %v", err)
	}
	if err := c.Release(ctx, lease); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if n := totalForwards(); n != 0 {
		t.Errorf("bootstrapped client caused %d forwards, want 0 (calls should go direct)", n)
	}

	// Lazy: tcp targets only, entry on a non-owner. The first acquire
	// is forwarded; its owner hint upgrades the rest to direct.
	other := tc.nonOwner(t, "bus")
	c, err = client.DialCluster([]string{
		"tcp://" + tc.addrs[other],
		"tcp://" + tc.addrs[owner],
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	lease, err = c.Acquire(ctx, "bus", 1, client.AcquireOptions{})
	if err != nil {
		t.Fatalf("lazy acquire: %v", err)
	}
	afterFirst := totalForwards()
	if afterFirst == 0 {
		t.Fatal("first lazy acquire was not forwarded; entry node should not own the resource")
	}
	if err := c.Release(ctx, lease); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		lease, err := c.Acquire(ctx, "bus", 1, client.AcquireOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Release(ctx, lease); err != nil {
			t.Fatal(err)
		}
	}
	if n := totalForwards(); n != afterFirst {
		t.Errorf("forwards grew from %d to %d after the owner hint; follow-ups should go direct", afterFirst, n)
	}
}

// TestDialClusterFailover pins the any-node fallback: with the
// preferred entry dead, DialCluster still reaches the cluster through
// the remaining members.
func TestDialClusterFailover(t *testing.T) {
	rcs := []arbd.ResourceConfig{res("bus", 4, "RR1")}
	tc := startCluster(t, []string{"a", "b", "c"}, rcs, nil)

	// A dead address first in the pool: every call must fail over past
	// it. Retries are trimmed so the test does not wait out backoffs.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	c, err := client.DialCluster([]string{
		"tcp://" + deadAddr,
		"tcp://" + tc.addrs["a"],
	}, client.WithRetries(1), client.WithDialTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := callCtx(t)
	lease, err := c.Acquire(ctx, "bus", 1, client.AcquireOptions{})
	if err != nil {
		t.Fatalf("acquire through fallback member: %v", err)
	}
	if err := c.Release(ctx, lease); err != nil {
		t.Fatal(err)
	}
}
