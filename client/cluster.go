package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
)

// clusterTransport fans a Client out over an arbd cluster
// (internal/arbd/cluster): every member serves every resource — ones
// it owns locally, the rest by forwarding — so correctness needs no
// topology knowledge at all. What the transport adds is placement
// awareness: it learns which member owns which resource (eagerly from
// /clusterz, lazily from the owner hints on routed responses) and
// sends each call straight to the owner, falling back to any member —
// and the cluster's forwarding — when it does not know or the owner
// is unreachable.
type clusterTransport struct {
	opts options

	mu     sync.Mutex
	member []string               // guarded by mu; dialable addrs, preference order
	seen   map[string]bool        // guarded by mu; addr dedup for member
	conns  map[string]*memberConn // guarded by mu; lazily dialed per member
	owners map[string]string      // guarded by mu; resource -> owner addr
	closed bool                   // guarded by mu
}

// DialCluster connects to an arbd cluster. targets lists the member
// addresses (tcp://host:port, the binary transport); http:// targets
// are used to bootstrap the topology from that node's /clusterz
// endpoint — the members it names are added to the pool and the
// resource → owner map is pre-loaded, so the first call already goes
// to the right node. Member connections are dialed lazily as calls
// route to them.
//
// The client works with any subset of the cluster reachable: calls
// for resources with no known owner go to the first reachable member,
// whose forwarding layer does the rest (the response's owner hint
// then upgrades future calls to direct). A call fails over to other
// members only when it never reached the wire (ErrRetriesExhausted),
// so an acquire is never duplicated.
func DialCluster(targets []string, opts ...Option) (*Client, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	o.resolve()
	ct := &clusterTransport{
		opts:   o,
		seen:   make(map[string]bool),
		conns:  make(map[string]*memberConn),
		owners: make(map[string]string),
	}
	var httpTargets []string
	for _, target := range targets {
		switch {
		case strings.HasPrefix(target, "tcp://"):
			ct.addMember(strings.TrimPrefix(target, "tcp://"))
		case strings.HasPrefix(target, "http://"), strings.HasPrefix(target, "https://"):
			httpTargets = append(httpTargets, strings.TrimSuffix(target, "/"))
		default:
			return nil, fmt.Errorf("client: cluster target %q needs a scheme: tcp:// (member) or http:// (topology bootstrap)", target)
		}
	}
	// Topology bootstrap is best-effort when members are known: a dead
	// metrics port should not stop a client that can already reach the
	// cluster. With no tcp targets at all the bootstrap is the only
	// source of members, so its failure is fatal.
	var bootErr error
	for _, base := range httpTargets {
		if err := ct.bootstrap(base); err != nil {
			bootErr = err
			continue
		}
		bootErr = nil
		break
	}
	ct.mu.Lock()
	n := len(ct.member)
	ct.mu.Unlock()
	if n == 0 {
		if bootErr != nil {
			return nil, fmt.Errorf("client: cluster topology bootstrap failed: %w", bootErr)
		}
		return nil, fmt.Errorf("client: no cluster members in targets")
	}
	return &Client{t: ct}, nil
}

// addMember registers a dialable member address once, preserving
// first-seen order.
func (ct *clusterTransport) addMember(addr string) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if !ct.seen[addr] {
		ct.seen[addr] = true
		ct.member = append(ct.member, addr)
	}
}

// clusterzDoc mirrors the fields of the cluster's /clusterz document
// this transport needs (the document belongs to internal/arbd/cluster;
// re-declaring the shape keeps the public client free of internal
// imports, like the error envelope in http.go).
type clusterzDoc struct {
	Members []struct {
		Name string `json:"name"`
		Addr string `json:"addr"`
	} `json:"members"`
	Owners map[string]string `json:"owners"`
}

// bootstrap loads the topology from one member's /clusterz.
func (ct *clusterTransport) bootstrap(base string) error {
	req, err := http.NewRequest(http.MethodGet, base+"/clusterz", nil)
	if err != nil {
		return fmt.Errorf("client: %v", err)
	}
	hc := &http.Client{Timeout: ct.opts.dialTimeout}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: clusterz %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeHTTPError(resp)
	}
	var doc clusterzDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return fmt.Errorf("client: bad clusterz document from %s: %v", base, err)
	}
	byName := make(map[string]string, len(doc.Members))
	for _, m := range doc.Members {
		addr := strings.TrimPrefix(m.Addr, "tcp://")
		byName[m.Name] = addr
		ct.addMember(addr)
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	for resource, owner := range doc.Owners {
		if addr, ok := byName[owner]; ok {
			ct.owners[resource] = addr
		}
	}
	return nil
}

// learn records an owner hint from a routed response; it is the
// binary transports' onOwnerHint callback.
func (ct *clusterTransport) learn(resource, addr string) {
	addr = strings.TrimPrefix(addr, "tcp://")
	ct.addMember(addr)
	ct.mu.Lock()
	ct.owners[resource] = addr
	ct.mu.Unlock()
}

// route orders the member addresses to try for resource: the known
// owner first, then the rest in pool order.
func (ct *clusterTransport) route(resource string) []string {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	out := make([]string, 0, len(ct.member))
	owner, known := ct.owners[resource]
	if known {
		out = append(out, owner)
	}
	for _, addr := range ct.member {
		if !known || addr != owner {
			out = append(out, addr)
		}
	}
	return out
}

// memberConn is one member's transport, dialed once: calls that need
// the member while its dial is in flight wait on ready for the result.
type memberConn struct {
	ready chan struct{} // closed when the dial has finished
	bt    *binaryTransport
	err   error
}

// conn returns the lazily-dialed transport for addr. The first caller
// dials, outside ct.mu so one dead member cannot stall routing to the
// rest; concurrent callers wait for its dial rather than each dialing
// their own, so a burst of first calls opens one connection. A failed
// dial is forgotten, and the next call dials again.
func (ct *clusterTransport) conn(addr string) (*binaryTransport, error) {
	ct.mu.Lock()
	if ct.closed {
		ct.mu.Unlock()
		return nil, ErrClosed
	}
	mc := ct.conns[addr]
	if mc != nil {
		ct.mu.Unlock()
		<-mc.ready
		return mc.bt, mc.err
	}
	mc = &memberConn{ready: make(chan struct{})}
	ct.conns[addr] = mc
	ct.mu.Unlock()
	defer close(mc.ready)
	bt, err := newBinaryTransport(addr, ct.opts, ct.learn)
	ct.mu.Lock()
	var late *binaryTransport
	if err == nil && ct.closed {
		late, bt, err = bt, nil, ErrClosed
	}
	if err != nil {
		delete(ct.conns, addr)
	}
	mc.bt, mc.err = bt, err
	ct.mu.Unlock()
	if late != nil {
		// Closed outside ct.mu: close waits for the reader, and the
		// reader's owner hints take ct.mu.
		late.close()
	}
	return bt, err
}

// do runs one call against the routed members in order, failing over
// only on errors that prove the request never reached a daemon: a
// failed dial, or a retry budget spent entirely before the write.
// Anything the server answered — including 503s — is the caller's to
// see.
func (ct *clusterTransport) do(resource string, call func(*binaryTransport) (Lease, error)) (Lease, error) {
	var lastErr error
	for _, addr := range ct.route(resource) {
		bt, err := ct.conn(addr)
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return Lease{}, err
			}
			lastErr = err
			continue
		}
		lease, err := call(bt)
		if err != nil && errors.Is(err, ErrRetriesExhausted) {
			lastErr = err
			continue
		}
		return lease, err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("client: no cluster members reachable")
	}
	return Lease{}, lastErr
}

func (ct *clusterTransport) acquire(ctx context.Context, resource string, agent int, opts AcquireOptions) (Lease, error) {
	return ct.do(resource, func(bt *binaryTransport) (Lease, error) {
		return bt.acquire(ctx, resource, agent, opts)
	})
}

func (ct *clusterTransport) release(ctx context.Context, resource, token string) error {
	_, err := ct.do(resource, func(bt *binaryTransport) (Lease, error) {
		return Lease{}, bt.release(ctx, resource, token)
	})
	return err
}

func (ct *clusterTransport) close() error {
	ct.mu.Lock()
	if ct.closed {
		ct.mu.Unlock()
		return nil
	}
	ct.closed = true
	var conns []*binaryTransport
	for _, mc := range ct.conns {
		// A dial still in flight sees closed when it lands and closes
		// its own transport.
		if mc.bt != nil {
			conns = append(conns, mc.bt)
		}
	}
	ct.mu.Unlock()
	var first error
	for _, bt := range conns {
		if err := bt.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
