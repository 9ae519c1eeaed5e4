package client_test

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"busarb/client"
	"busarb/internal/arbd"
)

// tick keeps the daemon's bus-cycle fast so queue timeouts resolve in
// test time.
const tick = 200 * time.Microsecond

// startDaemon builds a daemon with one "bus" resource and serves it
// over both transports, returning the two Dial targets and the daemon
// (for metrics-based synchronization).
func startDaemon(t *testing.T, agents, maxQueue int) (httpTarget, tcpTarget string, d *arbd.Daemon) {
	t.Helper()
	var err error
	d, err = arbd.New(arbd.Config{Resources: []arbd.ResourceConfig{{
		Name:     "bus",
		Agents:   agents,
		Protocol: "RR1",
		Tick:     tick,
		MaxQueue: maxQueue,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bs := arbd.NewBinaryServer(d)
	go bs.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		bs.Close()
		d.Close()
	})
	return srv.URL, "tcp://" + ln.Addr().String(), d
}

// transports runs a subtest against each transport's Dial target.
func transports(t *testing.T, httpTarget, tcpTarget string, f func(t *testing.T, c *client.Client)) {
	t.Helper()
	for _, tc := range []struct{ name, target string }{
		{"http", httpTarget},
		{"binary", tcpTarget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := client.Dial(tc.target)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			f(t, c)
		})
	}
}

// TestDialErrors pins Dial's failure modes: a target without a known
// scheme is rejected before any I/O, and an unreachable tcp:// target
// fails eagerly at Dial, not on the first Acquire.
func TestDialErrors(t *testing.T) {
	if _, err := client.Dial("127.0.0.1:8321"); err == nil ||
		!strings.Contains(err.Error(), "scheme") {
		t.Errorf("schemeless Dial err = %v, want scheme error", err)
	}
	if _, err := client.Dial("ftp://127.0.0.1:8321"); err == nil ||
		!strings.Contains(err.Error(), "scheme") {
		t.Errorf("ftp Dial err = %v, want scheme error", err)
	}
	// A listener we immediately close: a port with nobody behind it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := client.Dial("tcp://"+addr, client.WithDialTimeout(time.Second)); err == nil ||
		!strings.Contains(err.Error(), "dial") {
		t.Errorf("unreachable tcp Dial err = %v, want dial error", err)
	}
}

// TestAcquireRelease is the public API round trip on both transports:
// the lease fields survive the wire identically.
func TestAcquireRelease(t *testing.T) {
	httpTarget, tcpTarget, _ := startDaemon(t, 4, 0)
	transports(t, httpTarget, tcpTarget, func(t *testing.T, c *client.Client) {
		ctx := context.Background()
		lease, err := c.Acquire(ctx, "bus", 2, client.AcquireOptions{TTL: 3 * time.Second})
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		if lease.Resource != "bus" || lease.Agent != 2 || lease.Token == "" || lease.TTL != 3*time.Second {
			t.Fatalf("lease = %+v, want bus/2/non-empty token/3s TTL", lease)
		}
		if err := c.Release(ctx, lease); err != nil {
			t.Fatalf("release: %v", err)
		}
	})
}

// TestErrorTaxonomy pins that both transports surface the daemon's
// taxonomy as the same typed errors: 404 as an inspectable *Error,
// 408 matching ErrDeadline, 503 matching ErrOverload.
func TestErrorTaxonomy(t *testing.T) {
	// MaxQueue 1: a holder plus one queued waiter saturate the
	// resource, so a further acquire is backpressured 503.
	httpTarget, tcpTarget, d := startDaemon(t, 4, 1)
	transports(t, httpTarget, tcpTarget, func(t *testing.T, c *client.Client) {
		ctx := context.Background()

		_, err := c.Acquire(ctx, "nosuch", 1, client.AcquireOptions{})
		var se *client.Error
		if !errors.As(err, &se) || se.Code != 404 {
			t.Fatalf("unknown resource err = %v, want *client.Error code 404", err)
		}
		if errors.Is(err, client.ErrDeadline) || errors.Is(err, client.ErrOverload) {
			t.Fatalf("404 matched a sentinel it should not: %v", err)
		}

		holder, err := c.Acquire(ctx, "bus", 1, client.AcquireOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Release(ctx, holder)

		// Queued past its timeout: the deadline error.
		_, err = c.Acquire(ctx, "bus", 2, client.AcquireOptions{Timeout: 5 * tick})
		if !errors.Is(err, client.ErrDeadline) {
			t.Fatalf("queue timeout err = %v, want ErrDeadline", err)
		}

		// Fill the queue with a patient waiter, then overflow it. The
		// probe must not race the waiter into the single queue slot, so
		// wait for the waiter's request line in the daemon's metrics
		// (its tally increments when the shard admits it) before
		// probing.
		base := d.Metrics()["bus"].Agents[2].Requests // agent 3
		waiterDone := make(chan struct{})
		go func() {
			defer close(waiterDone)
			lease, err := c.Acquire(ctx, "bus", 3, client.AcquireOptions{Timeout: 2 * time.Second})
			if err == nil {
				c.Release(ctx, lease)
			}
		}()
		deadline := time.Now().Add(2 * time.Second)
		for d.Metrics()["bus"].Agents[2].Requests == base {
			if time.Now().After(deadline) {
				t.Fatal("waiter never reached the shard queue")
			}
			time.Sleep(tick)
		}
		_, err = c.Acquire(ctx, "bus", 4, client.AcquireOptions{Timeout: 5 * tick})
		if !errors.Is(err, client.ErrOverload) {
			t.Fatalf("full-queue err = %v, want ErrOverload", err)
		}
		c.Release(ctx, holder)
		<-waiterDone
	})
}

// TestContextDeadline pins the binary transport's deadline handling: a
// context deadline with no explicit Timeout is forwarded to the daemon
// as the queue timeout, so the caller gets the daemon's 408 — and the
// daemon discards the waiter instead of granting to an absent caller.
func TestContextDeadline(t *testing.T) {
	_, tcpTarget, _ := startDaemon(t, 4, 0)
	c, err := client.Dial(tcpTarget)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	holder, err := c.Acquire(ctx, "bus", 1, client.AcquireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release(ctx, holder)

	dctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	_, err = c.Acquire(dctx, "bus", 2, client.AcquireOptions{})
	if !errors.Is(err, client.ErrDeadline) {
		t.Fatalf("ctx-deadline acquire err = %v, want ErrDeadline", err)
	}
}

// TestClosedClient pins ErrClosed: a closed binary client fails fast
// on the next call.
func TestClosedClient(t *testing.T) {
	_, tcpTarget, _ := startDaemon(t, 4, 0)
	c, err := client.Dial(tcpTarget)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Acquire(context.Background(), "bus", 1, client.AcquireOptions{}); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("acquire on closed client err = %v, want ErrClosed", err)
	}
}

// connStates records the server-side life of every connection an
// httptest server accepts, through its ConnState hook.
type connStates struct {
	mu     sync.Mutex
	last   map[net.Conn]http.ConnState // guarded by mu
	counts map[http.ConnState]int      // guarded by mu
}

func (cs *connStates) hook(conn net.Conn, st http.ConnState) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.last[conn] = st
	cs.counts[st]++
}

func (cs *connStates) count(st http.ConnState) int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.counts[st]
}

// startHTTPDaemon serves a one-resource daemon over an httptest server
// whose connections are recorded in the returned connStates.
func startHTTPDaemon(t *testing.T, agents int) (string, *connStates) {
	t.Helper()
	d, err := arbd.New(arbd.Config{Resources: []arbd.ResourceConfig{{
		Name: "bus", Agents: agents, Protocol: "RR1", Tick: tick,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	cs := &connStates{last: map[net.Conn]http.ConnState{}, counts: map[http.ConnState]int{}}
	srv := httptest.NewUnstartedServer(d.Handler())
	srv.Config.ConnState = cs.hook
	srv.Start()
	t.Cleanup(func() {
		srv.Close()
		d.Close()
	})
	return srv.URL, cs
}

// cycle runs one acquire/release round trip through c.
func cycle(t *testing.T, c *client.Client, agent int) {
	t.Helper()
	ctx := context.Background()
	lease, err := c.Acquire(ctx, "bus", agent, client.AcquireOptions{})
	if err != nil {
		t.Errorf("agent %d acquire: %v", agent, err)
		return
	}
	if err := c.Release(ctx, lease); err != nil {
		t.Errorf("agent %d release: %v", agent, err)
	}
}

// TestHTTPCloseIsPrivate pins that an HTTP Client owns its connection
// pool: closing one Client leaves another Client's idle connection to
// the same daemon open.
func TestHTTPCloseIsPrivate(t *testing.T) {
	target, cs := startHTTPDaemon(t, 2)
	kept, err := client.Dial(target)
	if err != nil {
		t.Fatal(err)
	}
	defer kept.Close()
	cycle(t, kept, 1)
	cs.mu.Lock()
	var keptConn net.Conn
	for conn := range cs.last {
		keptConn = conn
	}
	cs.mu.Unlock()

	closed, err := client.Dial(target)
	if err != nil {
		t.Fatal(err)
	}
	cycle(t, closed, 2)
	closed.Close()
	deadline := time.Now().Add(2 * time.Second)
	for cs.count(http.StateClosed) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("closing a client closed no connection")
		}
		time.Sleep(time.Millisecond)
	}
	cs.mu.Lock()
	st := cs.last[keptConn]
	cs.mu.Unlock()
	if st == http.StateClosed {
		t.Error("closing one client closed another client's idle connection")
	}
}

// TestHTTPReusesConnections pins the HTTP transport's idle pool: 8
// closed-loop agents sharing one Client find their connections again,
// so no connection is closed while the Client is open and the daemon
// sees about one connection per agent. An agent that dials while
// every connection is busy may be handed one that frees up first; its
// dial then lands in the pool as a spare, so the count may pass one
// per agent, but dials stop once there is one per agent.
func TestHTTPReusesConnections(t *testing.T) {
	const agents, cycles = 8, 20
	target, cs := startHTTPDaemon(t, agents)
	c, err := client.Dial(target)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for agent := 1; agent <= agents; agent++ {
		wg.Add(1)
		go func(agent int) {
			defer wg.Done()
			for i := 0; i < cycles; i++ {
				cycle(t, c, agent)
			}
		}(agent)
	}
	wg.Wait()
	if n := cs.count(http.StateClosed); n > 0 {
		t.Errorf("%d connections closed while the client was open, want 0", n)
	}
	if n := cs.count(http.StateNew); n >= 2*agents {
		t.Errorf("%d agents x %d cycles opened %d connections, want fewer than %d", agents, cycles, n, 2*agents)
	}
}
