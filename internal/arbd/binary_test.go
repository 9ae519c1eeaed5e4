package arbd

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"busarb/client"
	"busarb/internal/arbd/codec"
)

// startBinary serves d over the binary protocol on a fresh loopback
// listener, returning the Dial target and the server for shutdown.
func startBinary(t *testing.T, d *Daemon) (string, *BinaryServer) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBinaryServer(d)
	go bs.Serve(ln)
	return "tcp://" + ln.Addr().String(), bs
}

// TestBinaryAcquireRelease is the binary transport's basic round trip
// over a real TCP socket: acquire grants a lease whose fields survive
// the wire, release ends it, and a second release of the same token is
// the not-found error.
func TestBinaryAcquireRelease(t *testing.T) {
	d, err := New(Config{Resources: []ResourceConfig{res("bus", 4, "RR1")}})
	if err != nil {
		t.Fatal(err)
	}
	target, bs := startBinary(t, d)
	defer func() { bs.Close(); d.Close() }()

	c, err := client.Dial(target)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	lease, err := c.Acquire(ctx, "bus", 3, client.AcquireOptions{TTL: 2 * time.Second})
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if lease.Resource != "bus" || lease.Agent != 3 || lease.Token == "" {
		t.Fatalf("lease = %+v, want resource bus, agent 3, non-empty token", lease)
	}
	if lease.TTL != 2*time.Second {
		t.Fatalf("lease TTL = %v, want 2s", lease.TTL)
	}
	if err := c.Release(ctx, lease); err != nil {
		t.Fatalf("release: %v", err)
	}
	err = c.Release(ctx, lease)
	var se *client.Error
	if !errors.As(err, &se) || se.Code != 404 {
		t.Fatalf("double release = %v, want *client.Error with code 404", err)
	}
}

// TestBinaryMultiplexing runs many logical agents through one Client —
// one TCP connection — with overlapping in-flight acquires, and checks
// every agent completes its budget. Correlation IDs, not connections,
// keep the conversations apart.
func TestBinaryMultiplexing(t *testing.T) {
	const agents, rounds = 16, 8
	d, err := New(Config{Resources: []ResourceConfig{
		res("bus", agents, "RR1"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	target, bs := startBinary(t, d)
	defer func() { bs.Close(); d.Close() }()

	c, err := client.Dial(target)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, agents)
	for id := 1; id <= agents; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				lease, err := c.Acquire(ctx, "bus", id, client.AcquireOptions{})
				if err != nil {
					errs <- fmt.Errorf("agent %d acquire: %w", id, err)
					return
				}
				if lease.Agent != id {
					errs <- fmt.Errorf("agent %d granted lease for agent %d", id, lease.Agent)
					return
				}
				if err := c.Release(ctx, lease); err != nil {
					errs <- fmt.Errorf("agent %d release: %w", id, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBinaryErrors pins the taxonomy over the wire: unknown resource
// and unknown lease are 404, queue-timeout is ErrDeadline (408), and a
// negative timeout or TTL — raw nanoseconds the binary codec ships
// without the HTTP layer's parseDuration guard — is rejected 400 by
// the shard itself.
func TestBinaryErrors(t *testing.T) {
	d, err := New(Config{Resources: []ResourceConfig{res("bus", 4, "RR1")}})
	if err != nil {
		t.Fatal(err)
	}
	target, bs := startBinary(t, d)
	defer func() { bs.Close(); d.Close() }()

	c, err := client.Dial(target)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	wantCode := func(t *testing.T, err error, code int) {
		t.Helper()
		var se *client.Error
		if !errors.As(err, &se) || se.Code != code {
			t.Fatalf("err = %v, want *client.Error with code %d", err, code)
		}
	}

	t.Run("unknown resource", func(t *testing.T) {
		_, err := c.Acquire(ctx, "nope", 1, client.AcquireOptions{})
		wantCode(t, err, 404)
	})
	t.Run("unknown lease", func(t *testing.T) {
		err := c.Release(ctx, client.Lease{Resource: "bus", Token: "bogus"})
		wantCode(t, err, 404)
	})
	t.Run("negative timeout", func(t *testing.T) {
		_, err := c.Acquire(ctx, "bus", 1, client.AcquireOptions{Timeout: -time.Second})
		wantCode(t, err, 400)
	})
	t.Run("negative ttl", func(t *testing.T) {
		_, err := c.Acquire(ctx, "bus", 1, client.AcquireOptions{TTL: -time.Second})
		wantCode(t, err, 400)
	})
	t.Run("deadline while queued", func(t *testing.T) {
		holder, err := c.Acquire(ctx, "bus", 1, client.AcquireOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Release(ctx, holder)
		_, err = c.Acquire(ctx, "bus", 2, client.AcquireOptions{Timeout: 5 * testTick})
		if !errors.Is(err, client.ErrDeadline) {
			t.Fatalf("queued acquire = %v, want ErrDeadline", err)
		}
		wantCode(t, err, 408)
	})
}

// TestBinaryBadFrame feeds the listener raw garbage and checks the
// server answers a bad_request error frame before hanging up, rather
// than stalling or dying.
func TestBinaryBadFrame(t *testing.T) {
	d, err := New(Config{Resources: []ResourceConfig{res("bus", 4, "RR1")}})
	if err != nil {
		t.Fatal(err)
	}
	target, bs := startBinary(t, d)
	defer func() { bs.Close(); d.Close() }()

	conn, err := net.Dial("tcp", target[len("tcp://"):])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A length prefix far over MaxPayload: hostile or corrupt.
	if _, err := conn.Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var f codec.Frame
	if err := codec.NewReader(conn).Next(&f); err != nil {
		t.Fatalf("reading error frame: %v", err)
	}
	if f.Type != codec.TError || f.Code != 400 {
		t.Fatalf("got frame type %v code %d, want TError 400", f.Type, f.Code)
	}
}

// TestBinaryBadFrameCorr pins whose correlation ID answers a frame that
// does not decode: the bad frame's own if its header decoded, else 0,
// never that of the last frame that decoded. Here that frame is an
// acquire still queued behind a held lease; when the bad frame ends the
// connection, the acquire is answered 408 under its own ID.
func TestBinaryBadFrameCorr(t *testing.T) {
	d, err := New(Config{Resources: []ResourceConfig{res("bus", 4, "RR1")}})
	if err != nil {
		t.Fatal(err)
	}
	target, bs := startBinary(t, d)
	defer func() { bs.Close(); d.Close() }()
	conn, err := net.Dial("tcp", target[len("tcp://"):])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	w, r := codec.NewWriter(conn), codec.NewReader(conn)
	var f codec.Frame
	if err := w.WriteFrame(&codec.Frame{Type: codec.TAcquire, Corr: 1, Agent: 1, Resource: []byte("bus")}); err != nil {
		t.Fatal(err)
	}
	if err := r.Next(&f); err != nil || f.Type != codec.TGrant || f.Corr != 1 {
		t.Fatalf("holder: got %v %+v, want a Grant under Corr 1", err, f)
	}
	if err := w.WriteFrame(&codec.Frame{Type: codec.TAcquire, Corr: 7, Agent: 2, Resource: []byte("bus")}); err != nil {
		t.Fatal(err)
	}
	waitQueued(t, d.shards["bus"], 2)
	if _, err := conn.Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		corr uint64
		code uint16
	}{{0, 400}, {7, 408}} {
		if err := r.Next(&f); err != nil {
			t.Fatalf("reading the answer under Corr %d: %v", want.corr, err)
		}
		if f.Type != codec.TError || f.Corr != want.corr || f.Code != want.code {
			t.Errorf("got %v %d under Corr %d (%q), want Error %d under Corr %d",
				f.Type, f.Code, f.Corr, f.Msg, want.code, want.corr)
		}
	}
}

// TestBinaryServerClose is the no-leaked-goroutines pin for the binary
// listener: with connections open and an acquire blocked in the shard
// queue, Close must abandon the waiter, tear down every per-connection
// goroutine, and return — and the goroutine count must come back to
// the baseline.
func TestBinaryServerClose(t *testing.T) {
	runtime.GC()
	before := runtime.NumGoroutine()

	d, err := New(Config{Resources: []ResourceConfig{res("bus", 4, "RR1")}})
	if err != nil {
		t.Fatal(err)
	}
	target, bs := startBinary(t, d)

	c, err := client.Dial(target)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	holder, err := c.Acquire(ctx, "bus", 1, client.AcquireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = holder
	// A second acquire that will still be queued when the server closes.
	waiterErr := make(chan error, 1)
	go func() {
		_, err := c.Acquire(ctx, "bus", 2, client.AcquireOptions{})
		waiterErr <- err
	}()
	waitQueued(t, d.shards["bus"], 2)

	if err := bs.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The torn connection must fail the in-flight call, not strand it.
	select {
	case err := <-waiterErr:
		if err == nil {
			t.Fatal("queued acquire succeeded across server Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued acquire still blocked after server Close")
	}
	c.Close()
	d.Close()

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

// TestBinaryAnswerBytes pins the server's answers byte for byte: raw
// frames go in over one connection, and each answer must equal
// codec.Append of the frame the protocol promises. It covers what the
// client-level tests cannot see: the resource in a Grant, the route a
// local answer to a routed frame echoes, and the answer to a frame
// type a client must not send.
func TestBinaryAnswerBytes(t *testing.T) {
	d, err := New(Config{Resources: []ResourceConfig{res("bus", 2, "RR1")}})
	if err != nil {
		t.Fatal(err)
	}
	target, bs := startBinary(t, d)
	defer func() { bs.Close(); d.Close() }()
	conn, err := net.Dial("tcp", target[len("tcp://"):])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	w := codec.NewWriter(conn)

	ttl := int64(30 * time.Second)
	route := codec.AppendRequestRoute(nil, 1, []byte("a"), 9)
	cases := []struct {
		name      string
		req, want codec.Frame
	}{
		{"grant",
			codec.Frame{Type: codec.TAcquire, Corr: 1, Agent: 1, TTLNS: ttl, Resource: []byte("bus")},
			codec.Frame{Type: codec.TGrant, Corr: 1, Agent: 1, TTLNS: ttl, Resource: []byte("bus"), Token: []byte("bus-1-1")}},
		{"released",
			codec.Frame{Type: codec.TRelease, Corr: 2, Resource: []byte("bus"), Token: []byte("bus-1-1")},
			codec.Frame{Type: codec.TReleased, Corr: 2, Resource: []byte("bus")}},
		{"error",
			codec.Frame{Type: codec.TRelease, Corr: 3, Resource: []byte("bus"), Token: []byte("bus-1-1")},
			codec.Frame{Type: codec.TError, Corr: 3, Code: 404, Msg: []byte("arbd: unknown or expired lease")}},
		{"routed grant",
			codec.Frame{Type: codec.TAcquire, Flags: codec.FlagRouted, Corr: 4, Agent: 2, TTLNS: ttl, Resource: []byte("bus"), Route: route},
			codec.Frame{Type: codec.TGrant, Flags: codec.FlagRouted, Corr: 4, Agent: 2, TTLNS: ttl, Resource: []byte("bus"), Token: []byte("bus-2-2"), Route: route}},
		{"routed released",
			codec.Frame{Type: codec.TRelease, Flags: codec.FlagRouted, Corr: 5, Resource: []byte("bus"), Token: []byte("bus-2-2"), Route: route},
			codec.Frame{Type: codec.TReleased, Flags: codec.FlagRouted, Corr: 5, Resource: []byte("bus"), Route: route}},
		{"unexpected frame",
			codec.Frame{Type: codec.TGrant, Corr: 6, Agent: 1, TTLNS: ttl, Resource: []byte("bus"), Token: []byte("bus-1-9")},
			codec.Frame{Type: codec.TError, Corr: 6, Code: 400, Msg: []byte("arbd: unexpected Grant frame")}},
		{"served after the bad frame",
			codec.Frame{Type: codec.TAcquire, Corr: 7, Agent: 1, Resource: []byte("bus")},
			codec.Frame{Type: codec.TGrant, Corr: 7, Agent: 1, TTLNS: ttl, Resource: []byte("bus"), Token: []byte("bus-1-3")}},
	}
	for _, tc := range cases {
		if err := w.WriteFrame(&tc.req); err != nil {
			t.Fatalf("%s: writing the request: %v", tc.name, err)
		}
		var prefix [4]byte
		if _, err := io.ReadFull(conn, prefix[:]); err != nil {
			t.Fatalf("%s: reading the answer: %v", tc.name, err)
		}
		got := make([]byte, 4+binary.BigEndian.Uint32(prefix[:]))
		copy(got, prefix[:])
		if _, err := io.ReadFull(conn, got[4:]); err != nil {
			t.Fatalf("%s: reading the answer: %v", tc.name, err)
		}
		want, err := codec.Append(nil, &tc.want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: answer\n got %x\nwant %x", tc.name, got, want)
		}
	}
}
