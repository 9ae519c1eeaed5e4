package client

import (
	"context"
	"errors"
	"fmt"
	"time"

	"busarb/internal/arbd/codec"
	"busarb/internal/arbd/mux"
)

// binaryTransport speaks the daemon's binary protocol (docs/WIRE.md)
// over one mux.Conn: a persistent TCP connection, dialed eagerly by
// Dial and redialed transparently if it tears, on which every call is
// correlated by ID so any number of logical agents multiplex over it.
// What the transport adds is the retry policy, the owner hints and the
// mapping of replies onto Lease and the error taxonomy.
type binaryTransport struct {
	conn  *mux.Conn
	retry *retryPolicy
	// onOwnerHint, when set (DialCluster), receives the owner hints a
	// cluster node attaches to relayed responses (docs/WIRE.md routed
	// frames): this resource's owner listens at addr. Called from the
	// connection's reader; immutable after construction.
	onOwnerHint func(resource, addr string)
}

func newBinaryTransport(addr string, o options, onOwnerHint func(resource, addr string)) (*binaryTransport, error) {
	t := &binaryTransport{retry: newRetryPolicy(o), onOwnerHint: onOwnerHint}
	var onReply func(*codec.Frame)
	if onOwnerHint != nil {
		onReply = t.noteOwnerHint
	}
	t.conn = mux.New(addr, addr, o.dialTimeout, onReply)
	if err := t.conn.Dial(); err != nil {
		return nil, connError(err)
	}
	return t, nil
}

// call writes one frame and waits for its correlated reply, mapped
// onto the error taxonomy.
func (t *binaryTransport) call(ctx context.Context, f *codec.Frame) (mux.Reply, error) {
	rep, err := t.conn.Call(ctx, f)
	switch {
	case err == nil && rep.Type == codec.TError:
		return rep, &Error{Code: rep.Code, Msg: rep.Msg}
	case err == nil:
		return rep, nil
	case err == ctx.Err():
		return rep, &Error{Code: 408, Msg: "client: context done before response: " + err.Error()}
	}
	return rep, connError(err)
}

// connError maps a call that got no reply: ErrClosed after Close; a
// transient error when the dial or the write failed, since nothing
// reached the daemon and retrying cannot double-acquire; otherwise
// the error that tore the connection.
func connError(err error) error {
	if err == mux.ErrClosed {
		return ErrClosed
	}
	err = fmt.Errorf("client: %w", err)
	var se *mux.SendError
	if errors.As(err, &se) {
		return &transientError{err}
	}
	return err
}

// noteOwnerHint surfaces a routed grant's or release's owner hint to
// the cluster transport. It runs in the connection's reader, so the
// replies to abandoned calls teach placement too.
func (t *binaryTransport) noteOwnerHint(f *codec.Frame) {
	if f.Type == codec.TError || f.Flags&codec.FlagRouted == 0 {
		return
	}
	if _, _, addr, ok := codec.ParseOwnerRoute(f.Route); ok && len(addr) > 0 {
		t.onOwnerHint(string(f.Resource), string(addr))
	}
}

func (t *binaryTransport) acquire(ctx context.Context, resource string, agent int, opts AcquireOptions) (Lease, error) {
	timeout := opts.Timeout
	if timeout == 0 {
		// No explicit timeout: let a context deadline bound the queue
		// wait server-side too, so the daemon answers 408 and discards
		// the waiter instead of granting into an abandoned call.
		if deadline, ok := ctx.Deadline(); ok {
			if timeout = time.Until(deadline); timeout <= 0 {
				return Lease{}, &Error{Code: 408, Msg: "client: context deadline already passed"}
			}
		}
	}
	f := codec.Frame{
		Type:      codec.TAcquire,
		Agent:     uint32(agent),
		TimeoutNS: int64(timeout),
		TTLNS:     int64(opts.TTL),
		Resource:  []byte(resource),
	}
	return t.retry.run(ctx, func() (Lease, error) {
		rep, err := t.call(ctx, &f)
		if err != nil {
			return Lease{}, err
		}
		return Lease{Resource: resource, Agent: int(rep.Agent), Token: rep.Token, TTL: rep.TTL}, nil
	})
}

func (t *binaryTransport) release(ctx context.Context, resource, token string) error {
	f := codec.Frame{
		Type:     codec.TRelease,
		Resource: []byte(resource),
		Token:    []byte(token),
	}
	_, err := t.retry.run(ctx, func() (Lease, error) {
		_, err := t.call(ctx, &f)
		return Lease{}, err
	})
	return err
}

// close closes the connection and waits for its reader; in-flight
// calls fail with ErrClosed.
func (t *binaryTransport) close() error {
	t.conn.Close()
	return nil
}
