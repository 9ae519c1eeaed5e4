// Package mux is the calling side of arbd's binary protocol
// (docs/WIRE.md): one persistent connection to an endpoint, over which
// any number of callers multiplex their requests, each matched to its
// reply by correlation ID. The public client (busarb/client) and the
// cluster's forwarder (internal/arbd/cluster) both call through it, so
// the dial, the correlation, the reply matching and the teardown exist
// once.
package mux

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"busarb/internal/arbd/codec"
)

// Reply is the terminal answer to one call, with owned fields. The
// reader fills it from a Grant, Released or Error frame, and arbd's
// binary server writes every answer from one, whether its local
// daemon or a forwarding node (arbd.Router) gave it.
type Reply struct {
	// Type is TGrant, TReleased or TError.
	Type codec.Type
	// Agent, TTL and Token populate a TGrant. The resource is the one
	// the call named, so the reply does not repeat it.
	Agent uint32
	TTL   time.Duration
	Token string
	// Code and Msg populate a TError (the daemon's 400/404/408/503
	// taxonomy).
	Code int
	Msg  string
	// Route, when non-nil, is the route field the server sends under
	// FlagRouted: the owner hint (codec.AppendOwnerRoute layout) a
	// forwarding node attaches to the answer it relays, or the route a
	// routed request carried, echoed on a local answer. The reader
	// never sets it.
	Route []byte
}

// ErrorReply builds a TError reply.
func ErrorReply(code int, msg string) Reply {
	return Reply{Type: codec.TError, Code: code, Msg: msg}
}

// ErrClosed is Call's error once Close has run, also for the calls
// that were in flight when it did.
var ErrClosed = errors.New("mux: connection closed")

// SendError is a call whose frame never reached the endpoint because
// the dial or the write failed, so retrying it cannot duplicate the
// request.
type SendError struct {
	// Dial is set when the dial failed; otherwise the write did.
	Dial bool
	// Name is the endpoint's name, as the Conn was given it.
	Name string
	Err  error
}

func (e *SendError) Error() string {
	if e.Dial {
		return "dial " + e.Name + ": " + e.Err.Error()
	}
	return "write to " + e.Name + ": " + e.Err.Error()
}

func (e *SendError) Unwrap() error { return e.Err }

// Conn is one persistent connection to an endpoint. It dials on the
// first call (or on Dial) and redials after the connection tears;
// calls in flight when it tears fail with the tear's error. A Conn is
// safe for concurrent use.
type Conn struct {
	addr        string
	name        string
	dialTimeout time.Duration
	onReply     func(*codec.Frame)

	mu      sync.Mutex
	conn    net.Conn               // guarded by mu; nil between teardown and redial
	w       *codec.Writer          // guarded by mu; writes serialized under it
	corr    uint64                 // guarded by mu
	pending map[uint64]chan result // guarded by mu
	closed  bool                   // guarded by mu

	wg sync.WaitGroup // one per live reader
}

// result resolves one pending call.
type result struct {
	rep Reply
	err error
}

// New returns a Conn to the host:port addr, not yet dialed. name is how
// its errors refer to the endpoint. onReply, if not nil, sees every
// reply frame in the reader before it is matched, also the replies to
// abandoned calls; the frame's fields alias the read buffer and stay
// valid only during the call.
func New(addr, name string, dialTimeout time.Duration, onReply func(*codec.Frame)) *Conn {
	return &Conn{
		addr:        addr,
		name:        name,
		dialTimeout: dialTimeout,
		onReply:     onReply,
		pending:     make(map[uint64]chan result),
	}
}

// Dial connects now if the connection is down, so that an unreachable
// endpoint fails here rather than on the first call.
func (c *Conn) Dial() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ensureConnLocked()
}

// ensureConnLocked dials if the connection is down and starts its
// reader. Callers hold c.mu.
func (c *Conn) ensureConnLocked() error {
	if c.closed {
		return ErrClosed
	}
	if c.conn != nil {
		return nil
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		return &SendError{Dial: true, Name: c.name, Err: err}
	}
	c.conn = conn
	c.w = codec.NewWriter(conn)
	c.wg.Add(1)
	go c.readLoop(conn)
	return nil
}

// Call writes f under a fresh correlation ID, which overwrites f.Corr,
// and waits for the reply. The error is nil whenever a reply arrived,
// a TError reply included. Otherwise it is:
//   - ErrClosed once Close has run;
//   - a *SendError when the frame never reached the endpoint;
//   - ctx.Err() when ctx ended first. A late reply matches nothing
//     and is dropped; a lease it grants lapses at its TTL;
//   - else the error that tore the connection.
func (c *Conn) Call(ctx context.Context, f *codec.Frame) (Reply, error) {
	c.mu.Lock()
	if err := c.ensureConnLocked(); err != nil {
		c.mu.Unlock()
		return Reply{}, err
	}
	c.corr++
	corr := c.corr
	f.Corr = corr
	ch := make(chan result, 1)
	c.pending[corr] = ch
	err := c.w.WriteFrame(f)
	c.mu.Unlock()
	if err != nil {
		// The reader's teardown will (or already did) fail ch; this
		// caller gets the write error instead.
		c.forget(corr)
		return Reply{}, &SendError{Name: c.name, Err: err}
	}
	select {
	case res := <-ch:
		return res.rep, res.err
	case <-ctx.Done():
		c.forget(corr)
		return Reply{}, ctx.Err()
	}
}

// forget abandons a pending correlation ID.
func (c *Conn) forget(corr uint64) {
	c.mu.Lock()
	delete(c.pending, corr)
	c.mu.Unlock()
}

// readLoop owns conn's read side: it resolves pending calls until the
// connection ends, then fails whatever is still in flight. Close ends
// it by closing conn, and waits for it on c.wg.
func (c *Conn) readLoop(conn net.Conn) {
	defer c.wg.Done()
	r := codec.NewReader(conn)
	var f codec.Frame
	for {
		if err := r.Next(&f); err != nil {
			c.teardown(conn, fmt.Errorf("connection to %s lost: %w", c.name, err))
			return
		}
		var rep Reply
		switch f.Type {
		case codec.TGrant:
			rep = Reply{Type: codec.TGrant, Agent: f.Agent, TTL: time.Duration(f.TTLNS), Token: string(f.Token)}
		case codec.TReleased:
			rep = Reply{Type: codec.TReleased}
		case codec.TError:
			rep = ErrorReply(int(f.Code), string(f.Msg))
		default:
			// A frame type no call asks for: protocol skew. Drop the
			// connection rather than guess.
			c.teardown(conn, fmt.Errorf("unexpected %v frame from %s", f.Type, c.name))
			return
		}
		if c.onReply != nil {
			c.onReply(&f)
		}
		c.mu.Lock()
		ch, ok := c.pending[f.Corr]
		delete(c.pending, f.Corr)
		c.mu.Unlock()
		if ok {
			ch <- result{rep: rep} // buffered; never blocks
		}
	}
}

// teardown retires a torn connection and fails its in-flight calls
// with err, or with ErrClosed once Close has run.
func (c *Conn) teardown(conn net.Conn, err error) {
	conn.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == conn {
		c.conn = nil
		c.w = nil
	}
	if c.closed {
		err = ErrClosed
	}
	for corr, ch := range c.pending { //arblint:allow determinism every in-flight call fails with the same error
		delete(c.pending, corr)
		ch <- result{err: err} // buffered; never blocks
	}
}

// Close tears the connection down and waits for its reader to exit.
// Calls in flight, and every later call, fail with ErrClosed. Close is
// idempotent.
func (c *Conn) Close() {
	c.mu.Lock()
	c.closed = true
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	c.wg.Wait()
}
