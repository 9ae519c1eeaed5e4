package cluster

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"busarb/internal/arbd"
	"busarb/internal/arbd/codec"
)

// peer is the pooled binary-protocol connection to one other cluster
// member. All forwards to that member multiplex over a single
// persistent connection, correlated by ID exactly like the public
// client's transport; the connection is dialed lazily on the first
// forward and redialed transparently after a tear.
//
// sem is the bounded forward queue: at most cap(sem) forwards may be
// in flight to the member at once. A full queue fails fast with a
// 503-equivalent reply instead of buffering without bound — the same
// pushback the daemon's own MaxQueue applies to local waiters.
type peer struct {
	name        string
	addr        string // dialable host:port (scheme stripped)
	dialTimeout time.Duration
	sem         chan struct{}

	mu      sync.Mutex
	conn    net.Conn                          // guarded by mu; nil between teardown and redial
	w       *codec.Writer                     // guarded by mu; writes serialized under it
	corr    uint64                            // guarded by mu
	pending map[uint64]chan arbd.ForwardReply // guarded by mu
	closed  bool                              // guarded by mu

	wg sync.WaitGroup // one per live readLoop
}

func newPeer(name, addr string, maxInflight int, dialTimeout time.Duration) *peer {
	return &peer{
		name:        name,
		addr:        dialAddr(addr),
		dialTimeout: dialTimeout,
		sem:         make(chan struct{}, maxInflight),
		pending:     make(map[uint64]chan arbd.ForwardReply),
	}
}

// dialAddr strips the tcp:// scheme member addresses are usually
// written with, leaving the host:port net.Dial wants.
func dialAddr(addr string) string {
	return strings.TrimPrefix(addr, "tcp://")
}

// call forwards one frame to the member and waits for its correlated
// reply. f's Corr is overwritten with this connection's correlation
// ID; the caller's own correlation with its client happens at the
// response relay, not on the wire here. The returned reply is always
// terminal (grant, released, or error); wire reports whether the
// frame actually reached the connection — sheds (full queue, failed
// dial, failed write) answer locally and count toward the shed
// metric, not the forward latency window.
func (p *peer) call(ctx context.Context, f *codec.Frame) (rep arbd.ForwardReply, wire bool) {
	select {
	case p.sem <- struct{}{}:
	default:
		// Queue full: shed rather than buffer. 503 tells the client the
		// same thing the daemon's own overload path would.
		return arbd.ErrorReply(503, fmt.Sprintf("cluster: forward queue to %s full", p.name)), false
	}
	defer func() { <-p.sem }()

	p.mu.Lock()
	if err := p.ensureConnLocked(); err != nil {
		p.mu.Unlock()
		return arbd.ErrorReply(503, fmt.Sprintf("cluster: owner %s unreachable: %v", p.name, err)), false
	}
	p.corr++
	corr := p.corr
	f.Corr = corr
	ch := make(chan arbd.ForwardReply, 1)
	p.pending[corr] = ch
	err := p.w.WriteFrame(f)
	p.mu.Unlock()
	if err != nil {
		// The reader's teardown will (or already did) fail ch; answer
		// the write error for this caller.
		p.forget(corr)
		return arbd.ErrorReply(503, fmt.Sprintf("cluster: write to %s: %v", p.name, err)), false
	}
	select {
	case rep := <-ch:
		return rep, true
	case <-ctx.Done():
		// The origin client is gone (or the node is closing); nobody is
		// left to read this reply. The owner's eventual answer hits an
		// unmatched correlation ID and is dropped; a granted lease
		// lapses at TTL, like any abandoned acquire.
		p.forget(corr)
		return arbd.ErrorReply(408, fmt.Sprintf("cluster: forward to %s abandoned: %v", p.name, ctx.Err())), true
	}
}

// forget abandons a pending correlation ID.
func (p *peer) forget(corr uint64) {
	p.mu.Lock()
	delete(p.pending, corr)
	p.mu.Unlock()
}

// ensureConnLocked dials if the connection is down and starts its
// reader. Callers hold p.mu.
func (p *peer) ensureConnLocked() error {
	if p.closed {
		return fmt.Errorf("cluster: peer %s closed", p.name)
	}
	if p.conn != nil {
		return nil
	}
	conn, err := net.DialTimeout("tcp", p.addr, p.dialTimeout)
	if err != nil {
		return err
	}
	p.conn = conn
	p.w = codec.NewWriter(conn)
	p.wg.Add(1)
	go p.readLoop(conn)
	return nil
}

// readLoop owns conn's read side: it resolves forwards until the
// connection ends, then fails whatever is still in flight. Its
// shutdown path is the WaitGroup: close() closes conn, the blocked
// Next fails, and the loop tears down and Done()s.
func (p *peer) readLoop(conn net.Conn) {
	defer p.wg.Done()
	r := codec.NewReader(conn)
	var f codec.Frame
	for {
		if err := r.Next(&f); err != nil {
			p.teardown(conn, fmt.Sprintf("cluster: connection to %s lost: %v", p.name, err))
			return
		}
		var rep arbd.ForwardReply
		switch f.Type {
		case codec.TGrant:
			rep = arbd.ForwardReply{
				Type:     codec.TGrant,
				Agent:    int(int32(f.Agent)),
				TTL:      time.Duration(f.TTLNS),
				Resource: string(f.Resource),
				Token:    string(f.Token),
			}
		case codec.TReleased:
			rep = arbd.ForwardReply{Type: codec.TReleased, Resource: string(f.Resource)}
		case codec.TError:
			rep = arbd.ForwardReply{Type: codec.TError, Code: int(f.Code), Msg: string(f.Msg)}
		default:
			// A frame type we never ask for: protocol skew. Drop the
			// connection rather than guess.
			p.teardown(conn, fmt.Sprintf("cluster: unexpected %v frame from %s", f.Type, p.name))
			return
		}
		p.mu.Lock()
		ch, ok := p.pending[f.Corr]
		if ok {
			delete(p.pending, f.Corr)
		}
		p.mu.Unlock()
		if ok {
			ch <- rep // buffered; never blocks
		}
	}
}

// teardown retires a torn connection and fails its in-flight
// forwards with a 503 so origin clients can retry another member.
func (p *peer) teardown(conn net.Conn, msg string) {
	conn.Close()
	p.mu.Lock()
	if p.conn == conn {
		p.conn = nil
		p.w = nil
	}
	var chans []chan arbd.ForwardReply
	for _, ch := range p.pending { //arblint:allow determinism every in-flight forward fails with the same reply
		chans = append(chans, ch)
	}
	p.pending = make(map[uint64]chan arbd.ForwardReply)
	p.mu.Unlock()
	for _, ch := range chans {
		ch <- arbd.ErrorReply(503, msg)
	}
}

// close tears the connection down and waits for the reader to exit.
// In-flight forwards fail through the reader's teardown.
func (p *peer) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	conn := p.conn
	p.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	p.wg.Wait()
}
