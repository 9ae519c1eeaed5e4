package client

// In-package tests for the retry layer: they reach the unexported
// policy and transport internals, and fake the server with raw codec
// frames (importing internal/arbd here would cycle — arbd's load
// generator imports this package).

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"busarb/internal/arbd/codec"
	"busarb/internal/rng"
)

// fakeServer answers Acquire with a Grant and Release with Released,
// enough protocol for the transport under test.
type fakeServer struct {
	t  *testing.T
	ln net.Listener

	mu    sync.Mutex
	conns []net.Conn // guarded by mu
	done  bool       // guarded by mu
}

func newFakeServer(t *testing.T, addr string) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	s := &fakeServer{t: t, ln: ln}
	go s.acceptLoop()
	t.Cleanup(s.stop)
	return s
}

func (s *fakeServer) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.done {
			// Accepted after stop copied the connection list: nobody
			// else will close it.
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns = append(s.conns, conn)
		s.mu.Unlock()
		go s.serve(conn)
	}
}

func (s *fakeServer) serve(conn net.Conn) {
	r := codec.NewReader(conn)
	w := codec.NewWriter(conn)
	var f codec.Frame
	for {
		if err := r.Next(&f); err != nil {
			conn.Close()
			return
		}
		var resp codec.Frame
		switch f.Type {
		case codec.TAcquire:
			resp = codec.Frame{
				Type:     codec.TGrant,
				Corr:     f.Corr,
				Agent:    f.Agent,
				TTLNS:    f.TTLNS,
				Resource: f.Resource,
				Token:    []byte("tok"),
			}
		case codec.TRelease:
			resp = codec.Frame{Type: codec.TReleased, Corr: f.Corr, Resource: f.Resource}
		default:
			conn.Close()
			return
		}
		if err := w.WriteFrame(&resp); err != nil {
			conn.Close()
			return
		}
	}
}

// stop closes the listener and every live connection.
func (s *fakeServer) stop() {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}

// waitTorn blocks until the transport's read loop has retired the
// dead connection: with the server stopped, Dial then has to redial,
// and the redial is refused.
func waitTorn(t *testing.T, bt *binaryTransport) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for bt.conn.Dial() == nil {
		if time.Now().After(deadline) {
			t.Fatal("transport never noticed the torn connection")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRetrySchedule pins the backoff arithmetic: exponential base
// doubling with jitter drawn from the seeded rng stream, byte-for-byte
// reproducible under WithRetryJitterSeed.
func TestRetrySchedule(t *testing.T) {
	o := defaultOptions()
	o.retryAttempts = 4
	o.retryBase = 100 * time.Millisecond
	o.retryJitterSeed = 7
	p := newRetryPolicy(o)
	var got []time.Duration
	p.sleep = func(ctx context.Context, d time.Duration) error {
		got = append(got, d)
		return nil
	}
	_, err := p.run(context.Background(), func() (Lease, error) {
		return Lease{}, &transientError{errors.New("dial refused")}
	})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if !strings.Contains(err.Error(), "dial refused") {
		t.Errorf("err %q does not carry the last underlying failure", err)
	}
	src := rng.New(7)
	var want []time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		d := o.retryBase << attempt
		want = append(want, d/2+time.Duration(float64(d)*src.Float64()))
	}
	if len(got) != len(want) {
		t.Fatalf("slept %d times, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("delay[%d] = %v, want %v", i, got[i], want[i])
		}
		if got[i] < want[i]/3 || got[i] > 2*(o.retryBase<<i) {
			t.Errorf("delay[%d] = %v outside the jitter envelope", i, got[i])
		}
	}
}

// TestRetryPermanentErrorStops pins that non-transient failures are
// not retried: the server's answer (or a lost in-flight call) is the
// caller's, first time.
func TestRetryPermanentErrorStops(t *testing.T) {
	o := defaultOptions()
	p := newRetryPolicy(o)
	p.sleep = func(ctx context.Context, d time.Duration) error {
		t.Fatal("slept before a permanent error")
		return nil
	}
	calls := 0
	want := &Error{Code: 404, Msg: "no such resource"}
	_, err := p.run(context.Background(), func() (Lease, error) {
		calls++
		return Lease{}, want
	})
	if calls != 1 || !errors.Is(err, want) {
		t.Fatalf("calls = %d, err = %v; want one call returning the server error", calls, err)
	}
}

// TestRetryRecovers is the satellite's headline: a connection torn
// between calls redials; if the redial is refused, the bounded retry
// keeps trying and succeeds once the server is back.
func TestRetryRecovers(t *testing.T) {
	srv := newFakeServer(t, "127.0.0.1:0")
	addr := srv.ln.Addr().String()
	o := defaultOptions()
	o.retryJitterSeed = 1
	bt, err := newBinaryTransport(addr, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bt.close()
	ctx := context.Background()
	if _, err := bt.acquire(ctx, "bus", 1, AcquireOptions{}); err != nil {
		t.Fatalf("warm-up acquire: %v", err)
	}

	// Kill the server and wait until the transport knows. The next
	// dial is refused (transient); the sleep hook resurrects the
	// server, so the following attempt connects.
	srv.stop()
	waitTorn(t, bt)
	slept := 0
	bt.retry.sleep = func(ctx context.Context, d time.Duration) error {
		slept++
		newFakeServer(t, addr)
		return nil
	}
	lease, err := bt.acquire(ctx, "bus", 2, AcquireOptions{})
	if err != nil {
		t.Fatalf("acquire after restart: %v", err)
	}
	if slept == 0 {
		t.Error("recovery needed no backoff; the refused dial was not exercised")
	}
	if lease.Token != "tok" || lease.Agent != 2 {
		t.Errorf("lease = %+v, want the fake server's grant", lease)
	}
}

// TestRetriesExhausted pins the typed failure: a server that stays
// dead burns the attempt budget and surfaces ErrRetriesExhausted
// wrapping the dial error.
func TestRetriesExhausted(t *testing.T) {
	srv := newFakeServer(t, "127.0.0.1:0")
	addr := srv.ln.Addr().String()
	o := defaultOptions()
	o.retryAttempts = 2
	o.retryJitterSeed = 1
	bt, err := newBinaryTransport(addr, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bt.close()
	srv.stop()
	waitTorn(t, bt)
	bt.retry.sleep = func(ctx context.Context, d time.Duration) error { return nil }
	_, err = bt.acquire(context.Background(), "bus", 1, AcquireOptions{})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if !strings.Contains(err.Error(), "dial") {
		t.Errorf("err %q should carry the dial failure", err)
	}
}

// TestRetryBackoffContext pins that a context ending mid-backoff
// stops the retry loop with a deadline-taxonomy error.
func TestRetryBackoffContext(t *testing.T) {
	o := defaultOptions()
	p := newRetryPolicy(o)
	ctx, cancel := context.WithCancel(context.Background())
	p.sleep = func(ctx context.Context, d time.Duration) error {
		cancel()
		return ctx.Err()
	}
	_, err := p.run(ctx, func() (Lease, error) {
		return Lease{}, &transientError{errors.New("refused")}
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
}
