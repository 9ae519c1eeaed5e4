// Package cluster turns a set of independent arbd processes into one
// logical arbitration service. The paper's protocols arbitrate one
// shared bus among ~10 processors; the ROADMAP north-star is the same
// fairness story at production scale — many resources sharded across
// many daemons. This package is the sharding and routing layer that
// makes the fleet look like a single daemon:
//
//   - a deterministic consistent-hash Ring maps each resource name to
//     the one member that runs its shard (ownership needs no
//     coordination: every node computes the same ring);
//   - a Node wraps a local arbd.Daemon in a routed binary server —
//     frames for foreign resources are proxied over a pooled
//     inter-node connection to the owner (FlagRouted + route field,
//     docs/WIRE.md) and the answer relayed back;
//   - /clusterz publishes the topology so clients (client.DialCluster)
//     can send straight to owners, and /metricz grows forward
//     count/latency so misrouted load is visible.
//
// Arbitration itself is untouched: a resource's protocol runs
// entirely on its owner's shard loop, so the paper's fairness
// properties hold per resource no matter which member a client
// happens to dial — the capstone test in this package pins exactly
// that.
package cluster

import (
	"context"
	"fmt"
	"net"
	"sort"
	"time"

	"busarb/internal/arbd"
	"busarb/internal/arbd/codec"
	"busarb/internal/arbd/mux"
)

// Member is one node of the cluster: a stable name (the ring hashes
// names, not addresses, so a member can move hosts without reshuffling
// ownership) and the address of its binary listener.
type Member struct {
	Name string `json:"name"`
	Addr string `json:"addr"` // tcp://host:port or host:port
}

// Config describes one node's view of the cluster. Every member must
// be configured with the same Members, Resources and Seed — the ring
// is computed, not negotiated, so agreement is a deployment invariant
// (clusterz exists to audit it). Every ring has DefaultVNodes points
// per member, and every frame may cross at most codec.RouteHopLimit
// nodes (docs/WIRE.md).
type Config struct {
	// Self names this node; it must appear in Members.
	Self string
	// Members lists every cluster member, this node included.
	Members []Member
	// Resources is the full cluster-wide resource list. The ring
	// decides which subset this node's daemon actually runs.
	Resources []arbd.ResourceConfig
	// Seed perturbs the ring's placement hash.
	Seed uint64
	// MaxInflight bounds in-flight forwards per peer (the forward
	// queue); beyond it forwards fail fast with 503. 0 means 256.
	MaxInflight int
}

// Validate checks the configuration; New returns exactly these errors.
func (cfg Config) Validate() error {
	if cfg.Self == "" {
		return fmt.Errorf("cluster: Self required")
	}
	if len(cfg.Members) == 0 {
		return fmt.Errorf("cluster: at least one member required")
	}
	seen := make(map[string]bool, len(cfg.Members))
	selfSeen := false
	for _, m := range cfg.Members {
		if m.Name == "" {
			return fmt.Errorf("cluster: member with empty name")
		}
		if seen[m.Name] {
			return fmt.Errorf("cluster: duplicate member %q", m.Name)
		}
		seen[m.Name] = true
		if m.Addr == "" {
			return fmt.Errorf("cluster: member %q has no address", m.Name)
		}
		if m.Name == cfg.Self {
			selfSeen = true
		}
	}
	if !selfSeen {
		return fmt.Errorf("cluster: Self %q not in Members", cfg.Self)
	}
	if cfg.MaxInflight < 0 {
		return fmt.Errorf("cluster: negative MaxInflight %d", cfg.MaxInflight)
	}
	return nil
}

// withDefaults returns cfg with zero fields filled in.
func (cfg Config) withDefaults() Config {
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 256
	}
	return cfg
}

// Node is one member's process: the local daemon running the shards
// the ring assigned here, the routed binary server forwarding
// everything else, and the pooled connections to every peer. A Node
// implements arbd.Router — that is the seam the binary server calls
// through.
type Node struct {
	cfg    Config
	ring   *Ring
	daemon *arbd.Daemon
	server *arbd.BinaryServer

	// owners maps every configured resource to its owning member;
	// resources and peerNames are the deterministic (sorted) iteration
	// orders for the maps. All four are immutable after New.
	owners    map[string]string
	resources []string
	peers     map[string]*peer
	peerNames []string
	self      Member

	fwd forwardStats
}

// New builds the node: ring, local daemon (only the resources the
// ring assigns to Self), routed binary server, and one lazy peer
// connection per other member. Serve starts the binary listener;
// Close stops everything.
func New(cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	names := make([]string, 0, len(cfg.Members))
	for _, m := range cfg.Members {
		names = append(names, m.Name)
	}
	ring, err := NewRing(names, DefaultVNodes, cfg.Seed)
	if err != nil {
		return nil, err
	}

	n := &Node{
		cfg:    cfg,
		ring:   ring,
		owners: make(map[string]string, len(cfg.Resources)),
		peers:  make(map[string]*peer, len(cfg.Members)-1),
	}
	var local []arbd.ResourceConfig
	for _, rc := range cfg.Resources {
		if _, dup := n.owners[rc.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate resource %q", rc.Name)
		}
		owner := ring.Owner(rc.Name)
		n.owners[rc.Name] = owner
		n.resources = append(n.resources, rc.Name)
		if owner == cfg.Self {
			local = append(local, rc)
		}
	}
	sort.Strings(n.resources)

	for _, m := range cfg.Members {
		if m.Name == cfg.Self {
			n.self = m
			continue
		}
		n.peers[m.Name] = newPeer(m.Name, m.Addr, cfg.MaxInflight)
		n.peerNames = append(n.peerNames, m.Name)
	}
	sort.Strings(n.peerNames)

	d, err := arbd.New(arbd.Config{Resources: local, AllowNoResources: true})
	if err != nil {
		return nil, err
	}
	n.daemon = d
	n.server = arbd.NewRoutedBinaryServer(d, n)
	return n, nil
}

// Serve accepts binary-protocol connections on ln until Close,
// blocking like http.Server.Serve.
func (n *Node) Serve(ln net.Listener) error { return n.server.Serve(ln) }

// Close stops the binary server (abandoning in-flight local acquires
// and forwards), tears down every peer connection, and stops the
// local daemon's shard loops. It is idempotent.
func (n *Node) Close() error {
	err := n.server.Close()
	for _, name := range n.peerNames {
		n.peers[name].conn.Close()
	}
	n.daemon.Close()
	return err
}

// Daemon exposes the local daemon (the shards this node owns) for
// metrics and tests.
func (n *Node) Daemon() *arbd.Daemon { return n.daemon }

// Ring exposes the node's ring for tests and tooling.
func (n *Node) Ring() *Ring { return n.ring }

// Self returns this node's member record.
func (n *Node) Self() Member { return n.self }

// Owner resolves a configured resource to its owning member. ok is
// false for resources the cluster does not serve.
func (n *Node) Owner(resource string) (Member, bool) {
	owner, ok := n.owners[resource]
	if !ok {
		return Member{}, false
	}
	for _, m := range n.cfg.Members {
		if m.Name == owner {
			return m, true
		}
	}
	return Member{}, false
}

// Owns reports whether the local daemon serves resource. Unknown
// resources are handled locally too: the daemon's 404 names the
// resource, which beats a routing error from a node that also does
// not have it.
func (n *Node) Owns(resource string) bool {
	owner, ok := n.owners[resource]
	return !ok || owner == n.cfg.Self
}

// Forward proxies an acquire or a release to the owner: stamp or
// advance the route field, decrement an acquire's deadline for the
// hop, push the frame down the owner's pooled connection, and relay
// the terminal answer with an owner hint attached. Each frame type
// encodes only its own fields, so one frame serves both verbs.
func (n *Node) Forward(ctx context.Context, f arbd.Request) mux.Reply {
	start := time.Now() //arblint:allow determinism forward latency is an operational metric, not simulation output
	timeout := f.Timeout
	if timeout > 0 {
		// Per-hop decrement: the owner must answer 408 before the
		// origin client's own deadline fires, or the client times out
		// with the request still queued on the owner. One eighth per
		// hop keeps a multi-hop chain monotonically tighter.
		timeout -= timeout / 8
	}
	rep, ok := n.forward(ctx, f, &codec.Frame{
		Type:      f.Type,
		Flags:     codec.FlagRouted,
		Agent:     uint32(f.Agent),
		TimeoutNS: int64(timeout),
		TTLNS:     int64(f.TTL),
		Resource:  []byte(f.Resource),
		Token:     []byte(f.Token),
	})
	n.fwd.record(time.Since(start), rep.Type == codec.TError, ok)
	return rep
}

// forward finishes route handling and performs the hop. ok reports whether the frame actually crossed the wire
// (local failures — hop limit, bad route, full queue — don't count as
// forward latency samples). The reply always carries the owner-hint
// route for the response relay.
func (n *Node) forward(ctx context.Context, f arbd.Request, wire *codec.Frame) (mux.Reply, bool) {
	var hops uint8
	origin := []byte(n.cfg.Self)
	corr := f.Corr
	if f.Route != nil {
		// The frame already crossed a node: keep its origin stamp,
		// advance the hop count, and refuse to bounce past the limit —
		// two nodes forwarding to each other means their rings disagree,
		// and error beats orbit.
		h, o, c, ok := codec.ParseRequestRoute(f.Route)
		if !ok {
			return n.hint(f.Resource, mux.ErrorReply(400, "cluster: malformed route field"), 0), false
		}
		hops, origin, corr = h, o, c
	}
	hops++
	if hops > codec.RouteHopLimit {
		return n.hint(f.Resource, mux.ErrorReply(503, fmt.Sprintf(
			"cluster: hop limit %d exceeded for %q (ring disagreement?)", codec.RouteHopLimit, f.Resource)), hops), false
	}
	wire.Route = codec.AppendRequestRoute(nil, hops, origin, corr)

	owner := n.owners[f.Resource]
	p := n.peers[owner]
	if p == nil {
		// Owns() said foreign, so the owner must be a peer; a miss here
		// is a programming error upstream, answered not crashed.
		return n.hint(f.Resource, mux.ErrorReply(503, fmt.Sprintf("cluster: no peer for owner %q", owner)), hops), false
	}
	rep, crossed := p.call(ctx, wire)
	return n.hint(f.Resource, rep, hops), crossed
}

// hint attaches the owner hint the response relay carries back to the
// origin client (codec.AppendOwnerRoute layout): which member owns
// resource and where its binary listener is, so topology-aware
// clients stop needing the forward.
func (n *Node) hint(resource string, rep mux.Reply, hops uint8) mux.Reply {
	if m, ok := n.Owner(resource); ok {
		rep.Route = codec.AppendOwnerRoute(nil, hops, []byte(m.Name), []byte(m.Addr))
	} else {
		rep.Route = codec.AppendOwnerRoute(nil, hops, nil, nil)
	}
	return rep
}
