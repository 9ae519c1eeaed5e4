package arbd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"busarb/internal/arbd/codec"
)

// BinaryServer serves the daemon over the compact binary protocol
// (internal/arbd/codec, spec in docs/WIRE.md): length-prefixed frames
// over persistent connections, many in-flight acquires per connection
// correlated by ID. It is the second transport onto the same
// transport-blind Daemon.Acquire/Daemon.Release entry points the HTTP
// handlers use — the shard loops cannot tell the transports apart.
//
// Per connection: one reader goroutine decodes frames; each acquire
// runs in its own goroutine (acquires block, and blocking the reader
// would serialize the multiplexed agents behind one grant); one
// writer goroutine owns the connection's write side and serializes
// the responses. A dropped connection abandons its in-flight acquires
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

// response is one server→client frame with owned (not buffer-aliased)
// fields, queued for the connection's writer goroutine.
type response struct {
	frame codec.Frame
	// resource, token, msg and route own the bytes frame's fields
	// alias. route is encoded only when frame.Flags carries
	// FlagRouted.
	resource, token, msg, route string
}

// serveConn runs one connection: reader here, writer and per-acquire
// goroutines below.
func (s *BinaryServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	defer conn.Close()

	// ctx abandons this connection's in-flight acquires when the read
	// side ends (peer gone or server closing).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The writer drains responses until the channel closes; a write
	// error degrades it into a discard loop so blocked acquire
	// goroutines can still finish sending.
	responses := make(chan response, 64)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		w := codec.NewWriter(conn)
		broken := false
		for r := range responses {
			if broken {
				continue
			}
			r.frame.Resource = []byte(r.resource)
			r.frame.Token = []byte(r.token)
			r.frame.Msg = []byte(r.msg)
			r.frame.Route = []byte(r.route)
			if err := w.WriteFrame(&r.frame); err != nil {
				broken = true
			}
		}
	}()

	var acquires sync.WaitGroup
	r := codec.NewReader(conn)
	var f codec.Frame
	for {
		if err := r.Next(&f); err != nil {
			// io.EOF is the peer's orderly goodbye; anything else —
			// malformed frame, version skew, torn connection, our own
			// Close — also just ends the conversation. A codec error is
			// answered best-effort before hanging up.
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.enqueue(responses, response{
					frame: codec.Frame{Type: codec.TError, Corr: f.Corr, Code: codeBadRequest},
					msg:   fmt.Sprintf("arbd: %v", err),
				})
			}
			break
		}
		switch f.Type {
		case codec.TAcquire:
			// Copy the buffer-aliased fields before the next Next call
			// invalidates them; the acquire blocks in its own goroutine.
			req := acquireArgs{
				corr:     f.Corr,
				resource: string(f.Resource),
				agent:    int(int32(f.Agent)),
				timeout:  time.Duration(f.TimeoutNS),
				ttl:      time.Duration(f.TTLNS),
				route:    string(f.Route),
				routed:   f.Flags&codec.FlagRouted != 0,
			}
			if s.router != nil && !s.router.Owns(req.resource) {
				s.forward(ctx, &acquires, responses, ForwardFrame{
					Type:     codec.TAcquire,
					Resource: req.resource,
					Agent:    req.agent,
					Timeout:  req.timeout,
					TTL:      req.ttl,
					Corr:     req.corr,
					Route:    []byte(req.route),
					Routed:   req.routed,
				})
				continue
			}
			acquires.Add(1)
			go func() {
				defer acquires.Done()
				s.handleAcquire(ctx, responses, req)
			}()
		case codec.TRelease:
			corr := f.Corr
			resource := string(f.Resource)
			if s.router != nil && !s.router.Owns(resource) {
				// A forwarded release blocks on the owner, so unlike the
				// local path it runs in its own goroutine (joining the
				// acquires group): release→response ordering is per-node,
				// not preserved across a hop.
				s.forward(ctx, &acquires, responses, ForwardFrame{
					Type:     codec.TRelease,
					Resource: resource,
					Token:    string(f.Token),
					Corr:     corr,
					Route:    []byte(f.Route),
					Routed:   f.Flags&codec.FlagRouted != 0,
				})
				continue
			}
			// Releases resolve against the shard loop without blocking
			// on a grant, so they are answered inline, preserving
			// release→response ordering on the connection.
			routed, route := f.Flags&codec.FlagRouted != 0, string(f.Route)
			if serr := s.d.Release(resource, string(f.Token)); serr != nil {
				s.enqueue(responses, stampRoute(errResponse(corr, serr), routed, route))
			} else {
				s.enqueue(responses, stampRoute(response{
					frame:    codec.Frame{Type: codec.TReleased, Corr: corr},
					resource: resource,
				}, routed, route))
			}
		default:
			s.enqueue(responses, response{
				frame: codec.Frame{Type: codec.TError, Corr: f.Corr, Code: codeBadRequest},
				msg:   fmt.Sprintf("arbd: unexpected %v frame", f.Type),
			})
		}
	}
	// Reader is done: cancel in-flight acquires, let them finish
	// replying, then retire the writer.
	cancel()
	acquires.Wait()
	close(responses)
	<-writerDone
}

// acquireArgs is one decoded acquire with owned fields. route/routed
// carry the incoming route field so owner-side responses to forwarded
// frames echo it back under FlagRouted.
type acquireArgs struct {
	corr     uint64
	resource string
	agent    int
	timeout  time.Duration
	ttl      time.Duration
	route    string
	routed   bool
}

// handleAcquire blocks on the shard and queues the response.
func (s *BinaryServer) handleAcquire(ctx context.Context, responses chan<- response, req acquireArgs) {
	lease, serr := s.d.Acquire(ctx, req.resource, req.agent, req.timeout, req.ttl)
	if serr != nil {
		s.enqueue(responses, stampRoute(errResponse(req.corr, serr), req.routed, req.route))
		return
	}
	s.enqueue(responses, stampRoute(response{
		frame: codec.Frame{
			Type:  codec.TGrant,
			Corr:  req.corr,
			Agent: uint32(lease.Agent),
			TTLNS: int64(lease.TTL),
		},
		resource: lease.Resource,
		token:    lease.Token,
	}, req.routed, req.route))
}

// forward hands a non-owned frame to the router in its own goroutine
// (joining the connection's acquires group — Close semantics are
// identical to a blocked local acquire) and queues the router's
// terminal reply, always under FlagRouted with the router's owner
// hint in the route field. The reply goes out under the client's own
// correlation ID and resource, which the hop does not carry back.
func (s *BinaryServer) forward(ctx context.Context, acquires *sync.WaitGroup, responses chan<- response, ff ForwardFrame) {
	acquires.Add(1)
	go func() {
		defer acquires.Done()
		rep := s.router.Forward(ctx, ff)
		s.enqueue(responses, response{
			frame: codec.Frame{
				Type:  rep.Type,
				Flags: codec.FlagRouted,
				Corr:  ff.Corr,
				Agent: rep.Agent,
				TTLNS: int64(rep.TTL),
				Code:  uint16(rep.Code),
			},
			resource: ff.Resource,
			token:    rep.Token,
			msg:      rep.Msg,
			route:    string(rep.Route),
		})
	}()
}

// stampRoute marks a response as the answer to a routed frame,
// echoing the request's route field; unrouted responses pass through
// unchanged.
func stampRoute(r response, routed bool, route string) response {
	if routed {
		r.frame.Flags |= codec.FlagRouted
		r.route = route
	}
	return r
}

// errResponse maps a statusError onto a wire error frame.
func errResponse(corr uint64, serr *statusError) response {
	return response{
		frame: codec.Frame{Type: codec.TError, Corr: corr, Code: uint16(serr.code)},
		msg:   serr.msg,
	}
}

// enqueue hands a response to the writer goroutine. The channel is
// only closed after every possible sender has finished (acquires are
// waited for, the reader enqueues inline), and the writer drains it
// to the end even on a broken connection, so the send cannot deadlock
// or panic.
func (s *BinaryServer) enqueue(responses chan<- response, r response) {
	responses <- r
}
