package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"busarb/internal/arbd/codec"
	"busarb/internal/arbd/mux"
)

// dialTimeout bounds each inter-node dial.
const dialTimeout = 2 * time.Second

// peer is the connection to one other cluster member: one mux.Conn,
// dialed on the first forward, that all forwards to the member share.
//
// sem is the bounded forward queue: at most cap(sem) forwards may be
// in flight to the member at once. A full queue fails fast with a
// 503-equivalent reply instead of buffering without bound — the same
// pushback the daemon's own MaxQueue applies to local waiters.
type peer struct {
	name string
	conn *mux.Conn
	sem  chan struct{}
}

// newPeer returns the lazy connection to the member name at addr
// (tcp://host:port or host:port).
func newPeer(name, addr string, maxInflight int) *peer {
	return &peer{
		name: name,
		conn: mux.New(strings.TrimPrefix(addr, "tcp://"), name, dialTimeout, nil),
		sem:  make(chan struct{}, maxInflight),
	}
}

// call forwards one frame to the member and waits for its correlated
// reply. f's Corr is overwritten with this connection's correlation
// ID; the caller's own correlation with its client happens at the
// response relay, not on the wire here. The returned reply is always
// terminal (grant, released, or error); wire reports whether the
// frame actually reached the connection — sheds (full queue, failed
// dial, failed write) answer locally and count toward the shed
// metric, not the forward latency window.
func (p *peer) call(ctx context.Context, f *codec.Frame) (rep mux.Reply, wire bool) {
	select {
	case p.sem <- struct{}{}:
	default:
		// Queue full: shed rather than buffer. 503 tells the client the
		// same thing the daemon's own overload path would.
		return mux.ErrorReply(503, fmt.Sprintf("cluster: forward queue to %s full", p.name)), false
	}
	defer func() { <-p.sem }()
	rep, err := p.conn.Call(ctx, f)
	if err != nil {
		return p.failed(ctx, err)
	}
	return rep, true
}

// failed answers a forward that got no reply. A torn connection fails
// with a 503 so origin clients can retry another member. An abandoned
// one answers 408 to nobody: the origin client is gone (or the node is
// closing), and the owner's eventual answer, a lease included, lapses.
func (p *peer) failed(ctx context.Context, err error) (mux.Reply, bool) {
	var se *mux.SendError
	switch {
	case err == ctx.Err():
		return mux.ErrorReply(408, fmt.Sprintf("cluster: forward to %s abandoned: %v", p.name, err)), true
	case err == mux.ErrClosed:
		return mux.ErrorReply(503, fmt.Sprintf("cluster: owner %s unreachable: cluster: peer %s closed", p.name, p.name)), false
	case errors.As(err, &se) && se.Dial:
		return mux.ErrorReply(503, fmt.Sprintf("cluster: owner %s unreachable: %v", p.name, se.Err)), false
	}
	return mux.ErrorReply(503, "cluster: "+err.Error()), se == nil
}
