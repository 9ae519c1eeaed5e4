// Package arbd is arbitration-as-a-service: the paper's bus
// arbitration protocols (internal/core, the same implementations the
// simulators run) granting named shared resources to networked clients
// over HTTP. It is the first subsystem in this repository where
// wall-clock concurrency is the product rather than a test harness.
//
// Each configured resource is one shard: a single goroutine that owns
// a busctl.Controller — the simulators' bus controller, holding the
// request lines and driving a core.Protocol (a flat protocol or a
// topo.Tree) — and runs the "bus cycle": a ticker that batches the
// acquire requests that arrived since the last tick, expires the
// lease, and, when the resource is free, settles one arbitration and
// grants the winner a lease, its bus tenure. A queued
// acquire's own goroutine owns its deadline: when its wait ends it has
// the loop drop the waiter, so no tick scans the queue. Mirroring the
// simulators' single-threaded event loops, the loop is the only
// goroutine that touches a shard's state — the protocol, the waiters,
// the lease, and the grant tallies and obs.Metrics windows behind
// /metricz — so none of it is locked: the only seams are the shard's
// channels, one of which carries /metricz's snapshot requests into the
// loop. Each input is handled at the time the loop read for it, and
// the events it causes carry that time.
//
// Backpressure contract: a full shard queue and a stopping daemon
// answer 503; an acquire whose client deadline passes while queued
// answers 408. Leases expire at their TTL if the holder never
// releases, so a crashed client cannot wedge a resource.
package arbd

import (
	"context"
	"fmt"
	"sync"
	"time"

	"busarb/internal/busctl"
	"busarb/internal/core"
	"busarb/internal/obs"
	"busarb/internal/topo"
)

// ResourceConfig describes one arbitrated resource (one shard).
type ResourceConfig struct {
	// Name identifies the resource in URLs (non-empty, unique).
	Name string
	// Agents is the number of arbitrating identities, 1..Agents. With
	// Topo set it may be left 0 (the tree's total) but must match the
	// tree when given.
	Agents int
	// Protocol names the arbitration protocol: any core.Names() entry
	// ("FP", "RR1", "RR3", "FCFS2", "AAP1", "Hybrid", ...). Set
	// exactly one of Protocol and Topo.
	Protocol string
	// Topo, if non-nil, arbitrates the resource hierarchically: agents
	// compete in clusters and cluster winners compete upward, each node
	// running its own protocol (internal/topo). Agent identities map
	// onto leaves depth-first.
	Topo *topo.Spec
	// Tick is the bus cycle: pending acquires are batched and at most
	// one arbitration resolves per tick. Default 1ms.
	Tick time.Duration
	// TTL is the default (and maximum) lease lifetime. Default 30s.
	TTL time.Duration
	// MaxQueue bounds the queued waiters per shard; acquires beyond it
	// are answered 503. Default 1024.
	MaxQueue int
	// MetricsWindow is the obs.Metrics window width in seconds.
	// Default 5s.
	MetricsWindow float64
}

// ProtocolName names the resource's arbitration discipline for status
// surfaces: the protocol name, or the tree's composite name (e.g.
// "FCFS2(4xRR1:8)").
func (rc ResourceConfig) ProtocolName() string {
	if rc.Topo != nil {
		return rc.Topo.Name()
	}
	return rc.Protocol
}

// withDefaults returns rc with zero fields filled in.
func (rc ResourceConfig) withDefaults() ResourceConfig {
	if rc.Topo != nil && rc.Agents == 0 {
		rc.Agents = rc.Topo.TotalAgents()
	}
	if rc.Tick == 0 {
		rc.Tick = time.Millisecond
	}
	if rc.TTL == 0 {
		rc.TTL = 30 * time.Second
	}
	if rc.MaxQueue == 0 {
		rc.MaxQueue = 1024
	}
	if rc.MetricsWindow == 0 {
		rc.MetricsWindow = 5
	}
	return rc
}

// Config describes a daemon.
type Config struct {
	// Resources lists the arbitrated resources (at least one, unless
	// AllowNoResources).
	Resources []ResourceConfig
	// AllowNoResources permits an empty Resources list. A standalone
	// daemon with nothing to arbitrate is a misconfiguration, but a
	// cluster node can legitimately own zero resources (the ring
	// placed them all elsewhere) while still forwarding for its
	// peers.
	AllowNoResources bool
	// Observer, if non-nil, additionally receives every shard's events,
	// each from its shard's loop goroutine: one shard's events arrive in
	// order, but two shards may call at once. Event times are seconds
	// since the daemon started, read by the loop for the input that
	// caused the event.
	Observer obs.Probe
}

// Validate checks the configuration; New returns exactly these errors.
func (cfg Config) Validate() error {
	if len(cfg.Resources) == 0 && !cfg.AllowNoResources {
		return fmt.Errorf("arbd: at least one resource required")
	}
	seen := make(map[string]bool, len(cfg.Resources))
	for _, rc := range cfg.Resources {
		if rc.Name == "" {
			return fmt.Errorf("arbd: resource with empty name")
		}
		if seen[rc.Name] {
			return fmt.Errorf("arbd: duplicate resource %q", rc.Name)
		}
		seen[rc.Name] = true
		switch {
		case rc.Topo != nil:
			if rc.Protocol != "" {
				return fmt.Errorf("arbd: resource %q: set Protocol or Topo, not both", rc.Name)
			}
			if err := rc.Topo.Validate(func(name string) error {
				_, err := core.ByName(name)
				return err
			}); err != nil {
				return fmt.Errorf("arbd: resource %q: %v", rc.Name, err)
			}
			if total := rc.Topo.TotalAgents(); rc.Agents != 0 && rc.Agents != total {
				return fmt.Errorf("arbd: resource %q: Agents %d does not match the tree's %d",
					rc.Name, rc.Agents, total)
			}
		default:
			if rc.Agents < 1 {
				return fmt.Errorf("arbd: resource %q needs at least 1 agent, got %d", rc.Name, rc.Agents)
			}
			if _, err := core.ByName(rc.Protocol); err != nil {
				return fmt.Errorf("arbd: resource %q: %v", rc.Name, err)
			}
		}
		if rc.Tick < 0 || rc.TTL < 0 || rc.MaxQueue < 0 || rc.MetricsWindow < 0 {
			return fmt.Errorf("arbd: resource %q has negative timing/queue parameters", rc.Name)
		}
	}
	return nil
}

// Daemon is a running arbitration service. Create with New, expose
// with Handler, stop with Close.
type Daemon struct {
	shards map[string]*shard
	names  []string // shard names in configuration order
	epoch  time.Time
}

// New validates cfg, builds one shard per resource, and starts the
// shard loops.
func New(cfg Config) (*Daemon, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Daemon{shards: make(map[string]*shard, len(cfg.Resources)), epoch: time.Now()}
	for _, rc := range cfg.Resources {
		rc = rc.withDefaults()
		var proto core.Protocol
		if rc.Topo != nil {
			tree, err := topo.NewTree(rc.Topo)
			if err != nil {
				return nil, err // unreachable after Validate; kept for safety
			}
			proto = tree
		} else {
			f, err := core.ByName(rc.Protocol)
			if err != nil {
				return nil, err // unreachable after Validate; kept for safety
			}
			proto = f(rc.Agents)
		}
		s := newShard(rc, proto, d.epoch, cfg.Observer)
		d.shards[rc.Name] = s
		d.names = append(d.names, rc.Name)
		go s.loop()
	}
	return d, nil
}

// Close stops every shard loop, answering all queued acquires with
// 503, and waits for the loops to exit. It is idempotent.
func (d *Daemon) Close() {
	for _, name := range d.names {
		d.shards[name].stop()
	}
	for _, name := range d.names {
		<-d.shards[name].stopped
	}
}

// Uptime returns the wall-clock time since the daemon started.
func (d *Daemon) Uptime() time.Duration { return time.Since(d.epoch) }

// statusError is a shard reply that did not grant: a code from the
// daemon's transport-neutral taxonomy plus a message. The codes reuse
// the HTTP status numbers — 400 bad request, 404 unknown resource or
// lease, 408 deadline, 503 overload/shutdown — and travel verbatim as
// binary-protocol error codes, so both transports speak the same
// taxonomy (client maps them onto its typed errors).
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// The taxonomy's codes, named where the transports construct replies.
const (
	codeBadRequest = 400
	codeNotFound   = 404
	codeDeadline   = 408
	codeOverload   = 503
)

// acquireReq is one client waiting for a grant.
type acquireReq struct {
	agent    int
	deadline time.Time       // zero means no client deadline
	ttl      time.Duration   // requested lease TTL (clamped to config)
	ctx      context.Context // done at the deadline or when the client goes away
	reply    chan acquireReply
}

// acquireReply resolves one acquireReq: a lease or an error.
type acquireReply struct {
	lease Lease
	err   *statusError
}

// Lease is a granted resource tenure.
type Lease struct {
	Resource string        `json:"resource"`
	Agent    int           `json:"agent"`
	Token    string        `json:"token"`
	TTL      time.Duration `json:"ttl_ns"`
}

// releaseReq asks the shard to end a lease.
type releaseReq struct {
	token string
	reply chan bool
}

// tally is the live counter probe behind /metricz: per-agent grants
// and line assertions plus resolution counts. Only the shard's loop
// drives and reads it.
type tally struct {
	grants       []int64 // indexed by agent identity; [0] unused
	requests     []int64
	arbitrations int64
	repasses     int64
}

// OnEvent implements obs.Probe.
func (t *tally) OnEvent(e obs.Event) {
	switch e.Kind {
	case obs.RequestIssued:
		t.requests[e.Agent]++
	case obs.ServiceStart:
		t.grants[e.Agent]++
	case obs.ArbitrationResolve:
		t.arbitrations++
	case obs.Repass:
		t.repasses++
	}
}

// shard is one resource's arbitration loop and its seams.
type shard struct {
	cfg   ResourceConfig
	epoch time.Time

	acquireCh chan *acquireReq
	releaseCh chan releaseReq
	cancelCh  chan *acquireReq          // acquires whose wait ended before their reply
	reportCh  chan chan ResourceMetrics // /metricz's snapshot requests
	done      chan struct{}             // closed by stop()
	stopped   chan struct{}             // closed when loop() exits
	stopOnce  sync.Once

	// final is the loop's last snapshot: written as the loop exits,
	// before stopped closes, and read only after that.
	final ResourceMetrics

	// Loop-owned state (no locking: single goroutine).
	probe       obs.Multi         // owned by the loop goroutine; tally, metrics and the Observer
	metrics     *obs.Metrics      // owned by the loop goroutine
	tally       *tally            // owned by the loop goroutine
	bus         busctl.Controller // owned by the loop goroutine
	pulse       float64           // owned by the loop goroutine; the bus clock: +1 per raise and per grant
	waiters     [][]*acquireReq   // owned by the loop goroutine; per-agent FIFO, index by identity
	nwait       int               // owned by the loop goroutine
	leaseToken  string            // owned by the loop goroutine; "" when the resource is free
	leaseAgent  int               // owned by the loop goroutine
	leaseExpiry time.Time         // owned by the loop goroutine
	tokenSeq    uint64            // owned by the loop goroutine
}

func newShard(rc ResourceConfig, proto core.Protocol, epoch time.Time, extra obs.Probe) *shard {
	s := &shard{
		cfg:       rc,
		epoch:     epoch,
		acquireCh: make(chan *acquireReq, 64),
		releaseCh: make(chan releaseReq, 16),
		cancelCh:  make(chan *acquireReq),
		reportCh:  make(chan chan ResourceMetrics),
		done:      make(chan struct{}),
		stopped:   make(chan struct{}),
		waiters:   make([][]*acquireReq, rc.Agents+1),
		metrics:   obs.NewMetrics(rc.MetricsWindow),
		tally: &tally{
			grants:   make([]int64, rc.Agents+1),
			requests: make([]int64, rc.Agents+1),
		},
	}
	s.probe = obs.Multi{s.tally, s.metrics}
	if extra != nil {
		s.probe = append(s.probe, extra)
	}
	s.bus.Init(proto)
	return s
}

// stop requests loop exit; idempotent.
func (s *shard) stop() { s.stopOnce.Do(func() { close(s.done) }) }

// emit hands the probe an event of kind for agent, stamped with now
// in seconds since the daemon epoch.
func (s *shard) emit(now time.Time, kind obs.Kind, agent int) {
	s.probe.OnEvent(obs.Event{Time: now.Sub(s.epoch).Seconds(), Kind: kind, Agent: agent})
}

// loop is the shard's single-goroutine bus cycle.
func (s *shard) loop() {
	defer close(s.stopped)
	ticker := time.NewTicker(s.cfg.Tick)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			s.drain()
			s.final = s.snapshot()
			return
		case req := <-s.acquireCh:
			s.admit(req, time.Now())
		case req := <-s.cancelCh:
			s.cancel(req, time.Now())
		case rel := <-s.releaseCh:
			rel.reply <- s.release(rel.token, time.Now())
		case reply := <-s.reportCh:
			reply <- s.snapshot()
		case <-ticker.C:
			s.tick(time.Now())
		}
	}
}

// drain answers every queued and in-channel acquire with 503 on
// shutdown.
func (s *shard) drain() {
	for {
		select {
		case req := <-s.acquireCh:
			req.reply <- acquireReply{err: &statusError{codeOverload, "arbd: shutting down"}}
			continue
		case rel := <-s.releaseCh:
			rel.reply <- false
			continue
		default:
		}
		break
	}
	for agent := 1; agent <= s.cfg.Agents; agent++ {
		for _, req := range s.waiters[agent] {
			req.reply <- acquireReply{err: &statusError{codeOverload, "arbd: shutting down"}}
		}
		s.waiters[agent] = nil
	}
	s.nwait = 0
}

// admit queues one acquire, asserting the agent's request line if it
// was idle. A full queue is backpressure: 503, try elsewhere or later.
// Otherwise a request whose wait already ended is answered 408 rather
// than queued: the loop can take its cancel before the acquire itself.
func (s *shard) admit(req *acquireReq, now time.Time) {
	if s.nwait >= s.cfg.MaxQueue {
		req.reply <- acquireReply{err: &statusError{codeOverload, fmt.Sprintf(
			"arbd: resource %q queue full (%d waiters)", s.cfg.Name, s.nwait)}}
		return
	}
	if serr := waiterDead(req, now); serr != nil {
		req.reply <- acquireReply{err: serr}
		return
	}
	s.waiters[req.agent] = append(s.waiters[req.agent], req)
	s.nwait++
	s.raise(req.agent, now)
}

// raise asserts agent's request line unless it is up: one outstanding
// request per agent, the paper's model. The shard arbitrates on its
// tick, so it ignores the controller's Action.
func (s *shard) raise(agent int, now time.Time) {
	if s.bus.Line(agent) {
		return
	}
	s.pulse++
	s.bus.Request(agent, s.pulse, false)
	s.emit(now, obs.RequestIssued, agent)
}

// cancel drops a queued waiter whose wait ended and answers it 408. A
// request not in its agent's queue was already answered, or admit will
// answer it. The agent's line stays asserted — the arbiter has no
// "deassert" message, matching the hardware model — and a grant to a
// line with no live waiter behind it is discarded.
func (s *shard) cancel(req *acquireReq, now time.Time) {
	q := s.waiters[req.agent]
	for i, w := range q {
		if w == req {
			s.waiters[req.agent] = append(q[:i], q[i+1:]...)
			s.nwait--
			req.reply <- acquireReply{err: waiterDead(req, now)}
			return
		}
	}
}

// release frees the lease identified by token. Unknown or expired
// tokens report false.
func (s *shard) release(token string, now time.Time) bool {
	if token == "" || token != s.leaseToken {
		return false
	}
	s.endLease(now)
	return true
}

// endLease clears the current lease, ends its tenure and emits its
// ServiceEnd.
func (s *shard) endLease(now time.Time) {
	s.emit(now, obs.ServiceEnd, s.leaseAgent)
	s.leaseToken = ""
	s.leaseAgent = 0
	s.bus.TenureEnd()
}

// tick is one bus cycle: expire the lease and — when the resource is
// free — arbitrate among the asserted lines and grant the winner.
func (s *shard) tick(now time.Time) {
	if s.leaseToken != "" && !now.Before(s.leaseExpiry) {
		// The holder never released: the lease lapses so a crashed
		// client cannot wedge the resource.
		s.endLease(now)
	}
	for s.leaseToken == "" {
		w, repasses := s.bus.Settle()
		if w == 0 {
			return // no line asserted: the idle bus starts no arbitration
		}
		for ; repasses > 0; repasses-- {
			s.emit(now, obs.Repass, 0)
		}
		s.emit(now, obs.ArbitrationResolve, w)
		s.pulse++
		s.bus.TenureStart(w, s.pulse, false)
		req := s.popWaiter(w, now)
		if req == nil {
			// The line was asserted but every waiter behind it died while
			// queued: the grant is discarded, like a bus master that fails
			// to assume mastership, and the bus arbitrates again, in this
			// cycle, among the lines still asserted.
			s.bus.TenureEnd()
			continue
		}
		s.grantLease(w, req, now)
		if len(s.waiters[w]) > 0 {
			// More clients share this identity: the line goes straight
			// back up for the next of them, which is when its wait starts
			// in the bus model.
			s.raise(w, now)
		}
	}
}

// waiterDead returns the 408 for a req that can no longer be granted,
// or nil. It checks the deadline before the context, whose own
// deadline it is, so the answer names which of the two ended the wait.
func waiterDead(req *acquireReq, now time.Time) *statusError {
	if !req.deadline.IsZero() && !now.Before(req.deadline) {
		return &statusError{codeDeadline, "arbd: acquire deadline exceeded while queued"}
	}
	select {
	case <-req.ctx.Done():
		return &statusError{codeDeadline, "arbd: client went away"}
	default:
	}
	return nil
}

// popWaiter dequeues agent's oldest live waiter.
func (s *shard) popWaiter(agent int, now time.Time) *acquireReq {
	for len(s.waiters[agent]) > 0 {
		req := s.waiters[agent][0]
		s.waiters[agent] = s.waiters[agent][1:]
		s.nwait--
		if serr := waiterDead(req, now); serr != nil {
			req.reply <- acquireReply{err: serr}
			continue
		}
		return req
	}
	return nil
}

// grantLease installs the winner's lease and replies to its waiter.
func (s *shard) grantLease(agent int, req *acquireReq, now time.Time) {
	ttl := req.ttl
	if ttl <= 0 || ttl > s.cfg.TTL {
		ttl = s.cfg.TTL
	}
	s.tokenSeq++
	token := fmt.Sprintf("%s-%d-%d", s.cfg.Name, agent, s.tokenSeq)
	s.leaseToken = token
	s.leaseAgent = agent
	s.leaseExpiry = now.Add(ttl)
	s.emit(now, obs.ServiceStart, agent)
	req.reply <- acquireReply{lease: Lease{
		Resource: s.cfg.Name,
		Agent:    agent,
		Token:    token,
		TTL:      ttl,
	}}
}

// acquire submits one request to the shard and waits for its reply,
// the client's deadline, or shutdown. It is the transport-blind entry
// point behind Daemon.Acquire, so it owns the full parameter
// validation: a transport that never parses durations (the binary
// codec ships raw nanoseconds) still cannot smuggle a negative
// timeout or TTL past it into the shard defaults.
func (s *shard) acquire(ctx context.Context, agent int, timeout, ttl time.Duration) (Lease, *statusError) {
	if agent < 1 || agent > s.cfg.Agents {
		return Lease{}, &statusError{codeBadRequest, fmt.Sprintf(
			"arbd: agent %d out of range 1..%d for resource %q", agent, s.cfg.Agents, s.cfg.Name)}
	}
	if timeout < 0 {
		return Lease{}, &statusError{codeBadRequest, fmt.Sprintf(
			"arbd: negative timeout %v", timeout)}
	}
	if ttl < 0 {
		return Lease{}, &statusError{codeBadRequest, fmt.Sprintf(
			"arbd: negative ttl %v", ttl)}
	}
	req := &acquireReq{
		agent: agent,
		ttl:   ttl,
		reply: make(chan acquireReply, 1),
	}
	if timeout > 0 {
		req.deadline = time.Now().Add(timeout)
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, req.deadline)
		defer cancel()
	}
	req.ctx = ctx
	select {
	case s.acquireCh <- req:
	case <-s.done:
		return Lease{}, &statusError{codeOverload, "arbd: shutting down"}
	case <-ctx.Done():
		return Lease{}, waiterDead(req, time.Now())
	}
	// From here the shard replies exactly once: on grant, on cancel, or
	// in the shutdown drain. This goroutine owns the wait: when its
	// context ends first it has the loop drop the waiter, then takes
	// the one reply — a 408, or the grant if that won the race. One
	// race remains: the send above can buffer into acquireCh just after
	// the exiting loop's final drain, leaving the request unowned — the
	// stopped channel breaks the wait, with a last non-blocking look in
	// case the reply and the shutdown raced.
	ended := ctx.Done()
	for {
		select {
		case rep := <-req.reply:
			return rep.lease, rep.err
		case <-ended:
			ended = nil
			select {
			case s.cancelCh <- req:
			case <-s.stopped:
			}
		case <-s.stopped:
			select {
			case rep := <-req.reply:
				return rep.lease, rep.err
			default:
				return Lease{}, &statusError{codeOverload, "arbd: shutting down"}
			}
		}
	}
}

// Acquire is the transport-blind entry point both the HTTP handlers
// and the binary listener feed: block until agent is granted resource
// (nil error), the timeout passes while queued (408), ctx is
// abandoned (408), backpressure pushes back (503: full queue or
// shutdown), or the parameters are rejected (400 bad agent or
// negative durations, 404 unknown resource).
func (d *Daemon) Acquire(ctx context.Context, resource string, agent int, timeout, ttl time.Duration) (Lease, *statusError) {
	s, ok := d.shards[resource]
	if !ok {
		return Lease{}, &statusError{codeNotFound, fmt.Sprintf("arbd: unknown resource %q", resource)}
	}
	return s.acquire(ctx, agent, timeout, ttl)
}

// Release is Acquire's counterpart: it ends the lease identified by
// token, reporting 404 for an unknown resource or an unknown/expired
// token.
func (d *Daemon) Release(resource, token string) *statusError {
	s, ok := d.shards[resource]
	if !ok {
		return &statusError{codeNotFound, fmt.Sprintf("arbd: unknown resource %q", resource)}
	}
	if !s.releaseToken(token) {
		return &statusError{codeNotFound, "arbd: unknown or expired lease"}
	}
	return nil
}

// releaseToken submits a release and reports whether a live lease
// matched.
func (s *shard) releaseToken(token string) bool {
	rel := releaseReq{token: token, reply: make(chan bool, 1)}
	select {
	case s.releaseCh <- rel:
	case <-s.done:
		return false
	}
	select {
	case ok := <-rel.reply:
		return ok
	case <-s.stopped:
		select {
		case ok := <-rel.reply:
			return ok
		default:
			return false
		}
	}
}
