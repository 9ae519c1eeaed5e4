package arbd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"busarb/internal/arbd/codec"
	"busarb/internal/arbd/mux"
)

// BinaryServer serves the daemon over the compact binary protocol
// (internal/arbd/codec, spec in docs/WIRE.md): length-prefixed frames
// over persistent connections, many in-flight acquires per connection
// correlated by ID. It is the second transport onto the same
// transport-blind Daemon.Acquire/Daemon.Release entry points the HTTP
// handlers use — the shard loops cannot tell the transports apart.
//
// Per connection: one reader goroutine decodes each Acquire or
// Release frame once into a Request; each acquire runs in its own
// goroutine (acquires block, and blocking the reader would serialize
// the multiplexed agents behind one grant); one writer goroutine owns
// the connection's write side and turns every answer, a mux.Reply,
// into a frame. A dropped connection abandons its in-flight acquires
// the same way a closed HTTP request body does: their contexts
// cancel, and queued waiters are answered (and discarded) through the
// shard's 408 path.
type BinaryServer struct {
	d *Daemon
	// router, when non-nil, makes this a cluster node: frames for
	// resources it does not own are proxied to the owner instead of
	// hitting the local daemon. See Router.
	router Router

	mu     sync.Mutex
	ln     net.Listener          // guarded by mu
	conns  map[net.Conn]struct{} // guarded by mu
	closed bool                  // guarded by mu

	wg sync.WaitGroup // one per live connection handler
}

// ErrServerClosed is Serve's return after Close, mirroring
// net/http.ErrServerClosed.
var ErrServerClosed = errors.New("arbd: binary server closed")

// NewBinaryServer returns a server for d. Serve starts it; Close
// stops it.
func NewBinaryServer(d *Daemon) *BinaryServer {
	return &BinaryServer{d: d, conns: make(map[net.Conn]struct{})}
}

// NewRoutedBinaryServer returns a cluster-aware server: frames for
// resources r does not own are forwarded through r to their owner and
// the answer relayed back under FlagRouted. Frames r owns behave
// exactly as on a standalone server.
func NewRoutedBinaryServer(d *Daemon, r Router) *BinaryServer {
	return &BinaryServer{d: d, router: r, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on ln until Close, blocking like
// http.Server.Serve. It returns ErrServerClosed after Close, or the
// first accept error otherwise.
func (s *BinaryServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Close stops accepting, closes every live connection (in-flight
// acquires are abandoned via their contexts), and waits for all
// connection handlers to exit. It is idempotent.
func (s *BinaryServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// dropConn forgets a finished connection.
func (s *BinaryServer) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// answer is one reply queued for the connection's writer, with the
// correlation ID and resource of the request it answers.
type answer struct {
	corr     uint64
	resource string
	rep      mux.Reply
}

// serveConn runs one connection: reader here, writer and per-request
// goroutines below.
func (s *BinaryServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	defer conn.Close()

	// ctx abandons this connection's in-flight acquires when the read
	// side ends (peer gone or server closing).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The writer drains answers until the channel closes; a write error
	// degrades it into a discard loop so blocked acquire goroutines can
	// still finish sending. The channel is closed only after every
	// sender has finished (the request goroutines are waited for, the
	// reader sends inline), so no send can deadlock or panic.
	answers := make(chan answer, 64)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		w := codec.NewWriter(conn)
		broken := false
		for a := range answers {
			if broken {
				continue
			}
			f := codec.Frame{
				Type:     a.rep.Type,
				Corr:     a.corr,
				Agent:    a.rep.Agent,
				TTLNS:    int64(a.rep.TTL),
				Code:     uint16(a.rep.Code),
				Resource: []byte(a.resource),
				Token:    []byte(a.rep.Token),
				Msg:      []byte(a.rep.Msg),
				Route:    a.rep.Route,
			}
			if f.Route != nil {
				f.Flags = codec.FlagRouted
			}
			if err := w.WriteFrame(&f); err != nil {
				broken = true
			}
		}
	}()

	var requests sync.WaitGroup
	r := codec.NewReader(conn)
	var f codec.Frame
	for {
		if err := r.Next(&f); err != nil {
			// io.EOF is the peer's orderly goodbye; anything else —
			// malformed frame, version skew, torn connection, our own
			// Close — also just ends the conversation. A codec error is
			// answered best-effort before hanging up.
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				answers <- answer{corr: f.Corr, rep: mux.ErrorReply(codeBadRequest, fmt.Sprintf("arbd: %v", err))}
			}
			break
		}
		if f.Type != codec.TAcquire && f.Type != codec.TRelease {
			answers <- answer{corr: f.Corr, rep: mux.ErrorReply(codeBadRequest, fmt.Sprintf("arbd: unexpected %v frame", f.Type))}
			continue
		}
		// Copy the buffer-aliased fields before the next Next call
		// invalidates them.
		req := Request{
			Type:     f.Type,
			Resource: string(f.Resource),
			Agent:    int(int32(f.Agent)),
			Timeout:  time.Duration(f.TimeoutNS),
			TTL:      time.Duration(f.TTLNS),
			Token:    string(f.Token),
			Corr:     f.Corr,
			Route:    bytes.Clone(f.Route),
		}
		switch {
		case s.router != nil && !s.router.Owns(req.Resource):
			// A forwarded request blocks on the owner, so it runs in its
			// own goroutine, a release too: release→answer ordering is
			// per-node, not preserved across a hop.
			requests.Add(1)
			go func() {
				defer requests.Done()
				answers <- answer{req.Corr, req.Resource, s.router.Forward(ctx, req)}
			}()
		case req.Type == codec.TAcquire:
			// Acquires block on the shard, and blocking the reader would
			// serialize the multiplexed agents behind one grant.
			requests.Add(1)
			go func() {
				defer requests.Done()
				answers <- answer{req.Corr, req.Resource, s.serve(ctx, req)}
			}()
		default:
			// Releases resolve against the shard loop without blocking
			// on a grant, so they are answered inline, preserving
			// release→answer ordering on the connection.
			answers <- answer{req.Corr, req.Resource, s.serve(ctx, req)}
		}
	}
	// Reader is done: cancel in-flight requests, let them finish
	// answering, then retire the writer.
	cancel()
	requests.Wait()
	close(answers)
	<-writerDone
}

// serve answers req on the local daemon. The answer to a routed frame
// echoes its route, which the writer sends under FlagRouted.
func (s *BinaryServer) serve(ctx context.Context, req Request) mux.Reply {
	var rep mux.Reply
	var serr *statusError
	if req.Type == codec.TAcquire {
		var lease Lease
		lease, serr = s.d.Acquire(ctx, req.Resource, req.Agent, req.Timeout, req.TTL)
		rep = mux.Reply{Type: codec.TGrant, Agent: uint32(lease.Agent), TTL: lease.TTL, Token: lease.Token}
	} else {
		serr = s.d.Release(req.Resource, req.Token)
		rep = mux.Reply{Type: codec.TReleased}
	}
	if serr != nil {
		rep = mux.ErrorReply(serr.code, serr.msg)
	}
	rep.Route = req.Route
	return rep
}
