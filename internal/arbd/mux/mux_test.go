package mux_test

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"busarb/internal/arbd/codec"
	"busarb/internal/arbd/mux"
)

// wait bounds every blocking step, so a broken Conn fails its test
// instead of hanging it.
const wait = 5 * time.Second

// endpoint is a scripted server on loopback: the test goroutine
// accepts each connection and reads and writes its frames by hand.
type endpoint struct {
	ln *net.TCPListener
}

func newEndpoint(t *testing.T) *endpoint {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return &endpoint{ln: ln.(*net.TCPListener)}
}

func (e *endpoint) addr() string { return e.ln.Addr().String() }

// accept waits for the Conn's next dial.
func (e *endpoint) accept(t *testing.T) *scripted {
	t.Helper()
	e.ln.SetDeadline(time.Now().Add(wait))
	conn, err := e.ln.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return &scripted{conn: conn, r: codec.NewReader(conn), w: codec.NewWriter(conn)}
}

// scripted is the server end of one connection.
type scripted struct {
	conn net.Conn
	r    *codec.Reader
	w    *codec.Writer
}

// read takes the next request off the wire and returns its
// correlation ID.
func (s *scripted) read(t *testing.T) uint64 {
	t.Helper()
	s.conn.SetReadDeadline(time.Now().Add(wait))
	var f codec.Frame
	if err := s.r.Next(&f); err != nil {
		t.Fatalf("endpoint read: %v", err)
	}
	return f.Corr
}

func (s *scripted) write(t *testing.T, f codec.Frame) {
	t.Helper()
	if err := s.w.WriteFrame(&f); err != nil {
		t.Fatalf("endpoint write: %v", err)
	}
}

func grant(corr uint64, token string) codec.Frame {
	return codec.Frame{Type: codec.TGrant, Corr: corr, Agent: 1, Resource: []byte("bus"), Token: []byte(token)}
}

type outcome struct {
	rep mux.Reply
	err error
}

// call runs one acquire on c in its own goroutine.
func call(ctx context.Context, c *mux.Conn) <-chan outcome {
	out := make(chan outcome, 1)
	go func() {
		f := codec.Frame{Type: codec.TAcquire, Agent: 1, Resource: []byte("bus")}
		rep, err := c.Call(ctx, &f)
		out <- outcome{rep, err}
	}()
	return out
}

func await(t *testing.T, out <-chan outcome) outcome {
	t.Helper()
	select {
	case o := <-out:
		return o
	case <-time.After(wait):
		t.Fatal("call never returned")
		return outcome{}
	}
}

// TestUnexpectedFrameTearsAndRedials pins protocol skew: a reply of a
// type no call asks for tears the connection and fails every pending
// call with an error naming the frame, and the next call redials.
func TestUnexpectedFrameTearsAndRedials(t *testing.T) {
	e := newEndpoint(t)
	c := mux.New(e.addr(), "peer", wait, nil)
	defer c.Close()
	ctx := context.Background()

	first, second := call(ctx, c), call(ctx, c)
	s := e.accept(t)
	s.read(t)
	s.read(t)
	s.write(t, codec.Frame{Type: codec.TAcquire, Corr: 1, Agent: 1, Resource: []byte("bus")})
	for _, out := range []<-chan outcome{first, second} {
		o := await(t, out)
		if o.err == nil || !strings.Contains(o.err.Error(), "unexpected Acquire frame from peer") {
			t.Errorf("pending call err = %v, want the unexpected-frame tear", o.err)
		}
		var se *mux.SendError
		if errors.As(o.err, &se) {
			t.Errorf("torn call reported as never sent: %v", o.err)
		}
	}

	next := call(ctx, c)
	s = e.accept(t)
	s.write(t, grant(s.read(t), "tok"))
	if o := await(t, next); o.err != nil || o.rep.Type != codec.TGrant || o.rep.Token != "tok" {
		t.Fatalf("call after the tear = %+v, %v; want the redialed grant", o.rep, o.err)
	}
}

// TestAbandonedReplyDropped pins abandonment: a call whose context
// ends returns ctx.Err() at once; its late reply reaches the onReply
// hook but matches nothing, and the next call on the same connection
// gets its own reply.
func TestAbandonedReplyDropped(t *testing.T) {
	e := newEndpoint(t)
	var lateSeen atomic.Bool
	c := mux.New(e.addr(), "peer", wait, func(f *codec.Frame) {
		if string(f.Token) == "late" {
			lateSeen.Store(true)
		}
	})
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	abandoned := call(ctx, c)
	s := e.accept(t)
	corr := s.read(t)
	cancel()
	if o := await(t, abandoned); o.err != context.Canceled {
		t.Fatalf("abandoned call err = %v, want context.Canceled", o.err)
	}
	s.write(t, grant(corr, "late"))

	next := call(context.Background(), c)
	s.write(t, grant(s.read(t), "mine"))
	if o := await(t, next); o.err != nil || o.rep.Token != "mine" {
		t.Fatalf("next call = %+v, %v; want its own grant", o.rep, o.err)
	}
	if !lateSeen.Load() {
		t.Error("onReply never saw the abandoned call's reply")
	}
}

// TestCloseFailsInFlightAndWaits pins Close: it returns only after the
// reader has exited, a call in flight fails with ErrClosed, and so
// does every later call.
func TestCloseFailsInFlightAndWaits(t *testing.T) {
	e := newEndpoint(t)
	inHook := make(chan struct{}, 1)
	unblock := make(chan struct{})
	c := mux.New(e.addr(), "peer", wait, func(*codec.Frame) {
		inHook <- struct{}{}
		<-unblock
	})
	ctx := context.Background()

	a, b := call(ctx, c), call(ctx, c)
	s := e.accept(t)
	corr := s.read(t)
	s.read(t)
	s.write(t, grant(corr, "first"))
	select {
	case <-inHook:
	case <-time.After(wait):
		t.Fatal("the reader never reached the hook")
	}

	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while its reader was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(unblock)
	select {
	case <-closed:
	case <-time.After(wait):
		t.Fatal("Close never returned after the reader was released")
	}

	granted, failed := 0, 0
	for _, out := range []<-chan outcome{a, b} {
		switch o := await(t, out); {
		case o.err == nil && o.rep.Token == "first":
			granted++
		case o.err == mux.ErrClosed:
			failed++
		default:
			t.Errorf("call = %+v, %v; want the grant or ErrClosed", o.rep, o.err)
		}
	}
	if granted != 1 || failed != 1 {
		t.Errorf("%d granted and %d failed with ErrClosed, want 1 and 1", granted, failed)
	}
	if o := await(t, call(ctx, c)); o.err != mux.ErrClosed {
		t.Errorf("call after Close err = %v, want ErrClosed", o.err)
	}
}
