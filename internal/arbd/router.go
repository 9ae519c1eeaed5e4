package arbd

import (
	"context"
	"time"

	"busarb/internal/arbd/codec"
	"busarb/internal/arbd/mux"
)

// Router is the seam between the binary server and a cluster layer
// (internal/arbd/cluster). A routed BinaryServer consults it per
// frame: frames for resources the router owns are handled by the
// local Daemon exactly as on a standalone server; frames for foreign
// resources are handed to Forward, which proxies them to the owning
// node and returns the owner's answer. The server stays
// transport-mechanical — membership, hop limits, deadline decrements
// and connection pooling all live behind this interface.
//
// Implementations must be safe for concurrent use: the server calls
// Owns from every connection's reader goroutine and Forward from
// per-request goroutines.
type Router interface {
	// Owns reports whether the local node is the owner of resource
	// under the cluster's ring. Unknown resources are "owned" too —
	// the local daemon answers 404 with more context than a routing
	// layer could.
	Owns(resource string) bool

	// Forward proxies an acquire or a release to the owner and blocks
	// until the owner answers, the forward fails, or ctx is done. It
	// always returns a terminal reply (TGrant, TReleased or TError),
	// with the owner hint the server relays under FlagRouted in its
	// Route.
	Forward(ctx context.Context, req Request) mux.Reply
}

// Request is one decoded Acquire or Release with owned (not
// buffer-aliased) fields: the binary server decodes each such frame
// into one, then serves it on the local daemon or hands it to
// Router.Forward.
type Request struct {
	// Type is TAcquire or TRelease.
	Type     codec.Type
	Resource string
	// Agent is the arbitrating identity (acquire only).
	Agent int
	// Timeout is the client's queue-wait bound (acquire only; 0 waits
	// indefinitely). Routers decrement it per hop so a forwarded
	// acquire cannot outlive the client's deadline.
	Timeout time.Duration
	// TTL is the requested lease lifetime (acquire only).
	TTL time.Duration
	// Token identifies the lease (release only).
	Token string
	// Corr is the client's correlation ID: the answer echoes it, and a
	// router stamps it into the onward route field.
	Corr uint64
	// Route is the frame's route field, nil when the frame did not
	// carry FlagRouted. A non-nil Route means the frame already crossed
	// a node: a router then enforces the hop limit instead of stamping
	// a fresh origin, and a local answer echoes it.
	Route []byte
}
