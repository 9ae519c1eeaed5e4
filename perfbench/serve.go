package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"busarb/client"
	"busarb/internal/arbd"
	"busarb/internal/obs"
)

// serveSpec is one serving workload: resources on one in-process
// daemon behind the binary transport, and one closed-loop client
// goroutine per active identity, spread over conns connections.
type serveSpec struct {
	resources []serveResource
	conns     int
}

// serveResource is one arbitrated resource and the identities
// first..last that drive it.
type serveResource struct {
	name, protocol string
	agents         int
	first, last    int
}

// served is a running daemon, its binary server and its clients.
type served struct {
	d       *arbd.Daemon
	srv     *arbd.BinaryServer
	serving chan error
	clients []*client.Client
}

// bringUp starts the daemon and its binary server on a loopback
// listener, dials the clients, and proves the path with one acquire
// and release per resource. wrap, when non-nil, wraps the listener
// (the traced run counts transport calls with it); observer, when
// non-nil, receives the shards' events.
func bringUp(spec *serveSpec, observer obs.Probe, wrap func(net.Listener) net.Listener) (*served, error) {
	rcs := make([]arbd.ResourceConfig, len(spec.resources))
	for i, r := range spec.resources {
		rcs[i] = arbd.ResourceConfig{Name: r.name, Agents: r.agents, Protocol: r.protocol}
	}
	d, err := arbd.New(arbd.Config{Resources: rcs, Observer: observer})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, err
	}
	addr := ln.Addr().String()
	if wrap != nil {
		ln = wrap(ln)
	}
	s := &served{d: d, srv: arbd.NewBinaryServer(d), serving: make(chan error, 1)}
	go func() { s.serving <- s.srv.Serve(ln) }()
	for i := 0; i < spec.conns; i++ {
		c, err := client.Dial("tcp://" + addr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	ctx := context.Background()
	for _, r := range spec.resources {
		lease, err := s.clients[0].Acquire(ctx, r.name, r.first, client.AcquireOptions{})
		if err == nil {
			err = s.clients[0].Release(ctx, lease)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("first round trip on %s: %w", r.name, err)
		}
	}
	return s, nil
}

func (s *served) close() {
	for _, c := range s.clients {
		c.Close()
	}
	s.srv.Close()
	<-s.serving
	s.d.Close()
}

// Closed-loop phases: samples count only while measuring.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// loadGen is the benchmark's own closed-loop generator over the client
// package: one goroutine per identity, each issuing its next acquire as
// soon as it has released the previous lease, with zero think and hold
// time. It checks every answer.
type loadGen struct {
	spec  *serveSpec
	phase atomic.Int32

	wait    latencyHist // Acquire call to returned grant; a failed acquire lands in the top bucket
	release latencyHist // Release call to its answer
	ops     atomic.Int64
	tries   atomic.Int64
	failed  atomic.Int64
	grants  []atomic.Int64 // by identity
	holders []atomic.Int32 // by resource: clients holding it right now

	tracer *tracer // nil when untraced
	report func(string, ...any)
}

func newLoadGen(spec *serveSpec, report func(string, ...any)) *loadGen {
	maxID := 0
	for _, r := range spec.resources {
		maxID = max(maxID, r.last)
	}
	return &loadGen{
		spec:    spec,
		grants:  make([]atomic.Int64, maxID+1),
		holders: make([]atomic.Int32, len(spec.resources)),
		report:  report,
	}
}

// run drives s until stop is closed, then lets every client finish its
// cycle and returns once all have exited.
func (g *loadGen) run(s *served, stop <-chan struct{}) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	k := 0
	for ri, r := range g.spec.resources {
		for id := r.first; id <= r.last; id++ {
			c := s.clients[k%len(s.clients)]
			k++
			wg.Add(1)
			go func(c *client.Client, ri int, res string, id int) {
				defer wg.Done()
				g.loop(ctx, c, ri, res, id)
			}(c, ri, r.name, id)
		}
	}
	<-stop
	g.phase.Store(phaseStop)
	wg.Wait()
}

func (g *loadGen) loop(ctx context.Context, c *client.Client, ri int, res string, id int) {
	for g.phase.Load() != phaseStop {
		measuring := g.phase.Load() == phaseMeasure
		var op int32
		if measuring && g.tracer != nil {
			op = g.tracer.reserve()
		}
		t0 := time.Now()
		lease, err := c.Acquire(ctx, res, id, client.AcquireOptions{})
		t1 := time.Now()
		if err != nil {
			if measuring {
				g.wait.record(missed)
			}
			g.fail("acquire %s agent %d: %v", res, id, err)
			continue
		}
		var problem error
		// No two clients may hold one resource at once: the count
		// goes up after Acquire returns and down before Release.
		if n := g.holders[ri].Add(1); n != 1 {
			problem = fmt.Errorf("%s held by %d clients at once", res, n)
		}
		if lease.Resource != res || lease.Agent != id {
			problem = fmt.Errorf("lease %+v answers %s agent %d", lease, res, id)
		}
		g.holders[ri].Add(-1)
		t2 := time.Now()
		if err := c.Release(ctx, lease); err != nil {
			problem = fmt.Errorf("release %s agent %d: %w", res, id, err)
		}
		t3 := time.Now()
		if problem != nil {
			g.fail("%v", problem)
			continue
		}
		if !measuring || g.phase.Load() != phaseMeasure {
			continue
		}
		g.tries.Add(1)
		g.ops.Add(1)
		g.grants[id].Add(1)
		g.wait.record(t1.Sub(t0))
		if g.tracer != nil {
			g.release.record(t3.Sub(t2))
			g.tracer.op(op, id, t0, t1, t2, t3)
		}
	}
}

// missed is the wait recorded for a failed acquire: it lands in the
// histogram's top bucket, so a failure counts as missing any latency
// limit.
const missed = time.Duration(1) << 62

// fail counts a failed cycle in any phase: a failure is never warm-up.
func (g *loadGen) fail(format string, args ...any) {
	g.tries.Add(1)
	g.failed.Add(1)
	g.report(format, args...)
}

// fairness is the worst over the best grant count among each
// resource's agents, minimum over the resources.
func (g *loadGen) fairness() float64 {
	f := 1.0
	for _, r := range g.spec.resources {
		f = min(f, g.resourceFairness(r))
	}
	return f
}

func (g *loadGen) resourceFairness(r serveResource) float64 {
	counts := make([]int64, 0, r.last-r.first+1)
	for id := r.first; id <= r.last; id++ {
		counts = append(counts, g.grants[id].Load())
	}
	return fairnessRatio(counts)
}
