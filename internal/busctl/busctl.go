// Package busctl is the paper's §4.1 bus controller, written once for
// bussim, snoop, membus and the arbd shard. An arbitration starts when
// a request line rises on a bus with none in flight, or when a tenure
// begins with requests pending; it overlaps that tenure, and its winner
// takes the bus when the tenure ends. One that starts on an idle bus is
// exposed: nothing hides its delay.
//
// The controller is sans-IO: the host owns the clock, the event kinds
// and the observer, feeds in request, resolve-due, tenure-start and
// tenure-end, and carries out the Action each returns. Lines and
// pending requests are kept apart on purpose: a snoop processor holds
// its line through a write-back and fill chain with no request pending
// during the write-back, and bussim with a request window queues
// several requests behind one line.
//
// A Controller is single-goroutine like the protocol it drives, and its
// per-event methods allocate nothing.
package busctl

import (
	"fmt"

	"busarb/internal/bitarb"
	"busarb/internal/core"
)

// Action is the controller's answer to one input.
type Action uint8

// The actions.
const (
	// Wait: nothing to schedule.
	Wait Action = iota
	// Arbitrate: an arbitration started over Snapshot; schedule its
	// resolve after the arbitration overhead.
	Arbitrate
	// Repass: the pass selected no one (RR3's empty pass, §3.1) and a
	// fresh one started over the lines as they stand; schedule its
	// resolve after another overhead.
	Repass
	// Grant: start the winner's tenure now.
	Grant
)

// Controller is one bus. Hosts embed it by value and set it up with
// Init.
type Controller struct {
	// LateJoin takes an arbitration's competitors when it resolves,
	// not when it starts (an ablation of the request-line snapshot).
	LateJoin bool
	// BoundaryArbOnly holds a request raised mid-tenure, with no
	// arbitration in flight, for the tenure's end (a synchronous bus).
	BoundaryArbOnly bool

	// Arbitrations counts resolved arbitrations, Repasses empty
	// passes, and Exposed the arbitrations started on an idle bus.
	Arbitrations, Repasses, Exposed int64

	proto    core.Protocol
	classReq core.ClassRequester // nil if the protocol ignores classes
	// snap is the copy of lines the arbitration in flight resolves
	// over; one is in flight at a time.
	lines, snap bitarb.Vec
	pending     int // requests not yet in service
	busy        bool
	arbitrating bool
	winner      int // latched behind the current tenure, or 0
}

// Init sets a zero Controller up as an idle bus over p's agents. It is
// the one allocating call.
func (c *Controller) Init(p core.Protocol) {
	c.proto = p
	c.classReq, _ = p.(core.ClassRequester)
	bitarb.InitVecs(p.N(), &c.lines, &c.snap)
}

// Line reports whether agent id's request line is up.
func (c *Controller) Line(id int) bool { return c.lines.Test(id) }

// Snapshot returns the lines the arbitration in flight resolves over,
// read-only, for the host's ArbitrationStart event.
func (c *Controller) Snapshot() *bitarb.Vec { return &c.snap }

// Request records a request by agent id at now: its line goes up, and
// the protocol hears of it (with its class, for a ClassRequester). It
// starts an arbitration unless one is in flight, a winner is latched,
// or BoundaryArbOnly holds a mid-tenure request.
func (c *Controller) Request(id int, now float64, urgent bool) Action {
	c.lines.Set(id)
	c.pending++
	if c.classReq != nil {
		c.classReq.OnClassRequest(id, now, urgent)
	} else {
		c.proto.OnRequest(id, now)
	}
	if c.arbitrating || c.winner != 0 || (c.BoundaryArbOnly && c.busy) {
		return Wait
	}
	return c.begin()
}

func (c *Controller) begin() Action {
	c.arbitrating = true
	if !c.busy {
		c.Exposed++
	}
	c.snap.CopyFrom(&c.lines)
	return Arbitrate
}

// Resolve is resolve-due: one pass of the arbitration in flight. It
// answers Repass, Grant and the winner on an idle bus, or Wait and the
// winner, latched until TenureEnd, on a busy one.
func (c *Controller) Resolve() (Action, int) {
	if c.LateJoin {
		c.snap.CopyFrom(&c.lines)
	}
	out := c.proto.Arbitrate(&c.snap)
	if out.Repass {
		c.Repasses++
		c.snap.CopyFrom(&c.lines)
		return Repass, 0
	}
	w := out.Winner
	if !c.lines.Test(w) {
		// Lines drop only as tenures start, and none starts while an
		// arbitration is in flight.
		panic(fmt.Sprintf("busctl: %s granted agent %d, whose line is down", c.proto.Name(), w))
	}
	c.Arbitrations++
	c.arbitrating = false
	if c.busy {
		c.winner = w
		return Wait, w
	}
	return Grant, w
}

// Settle is resolve-due for a host with no arbitration delay: on an
// idle bus, one arbitration over the lines as they stand, empty passes
// re-run at once (core.Resolve). It returns the winner, whose tenure
// the host starts, and the empty passes, or 0, 0 with nothing pending.
func (c *Controller) Settle() (winner, repasses int) {
	if c.pending == 0 {
		return 0, 0
	}
	if c.busy {
		panic("busctl: Settle on a busy bus")
	}
	winner, repasses = core.Resolve(c.proto, &c.lines)
	c.Arbitrations++
	c.Repasses += int64(repasses)
	c.arbitrating = false
	return winner, repasses
}

// TenureStart records that agent id took the bus at now for one of its
// pending requests. Its line drops unless keepLine (it has more to
// send), and the next arbitration starts at once if requests are
// pending.
func (c *Controller) TenureStart(id int, now float64, keepLine bool) Action {
	if !keepLine {
		c.lines.Clear(id)
	}
	c.pending--
	c.busy = true
	c.winner = 0
	c.proto.OnServiceStart(id, now)
	if c.pending > 0 && !c.arbitrating {
		return c.begin()
	}
	return Wait
}

// TenureEnd records that the tenure ended: the latched winner takes
// the bus (Grant); else an arbitration in flight grants when it
// resolves, or pending requests start an exposed one. A host that
// requests as the tenure ends (a chain's next transaction) calls
// Request first.
func (c *Controller) TenureEnd() (Action, int) {
	c.busy = false
	switch {
	case c.winner != 0:
		return Grant, c.winner
	case c.arbitrating || c.pending == 0:
		return Wait, 0
	}
	return c.begin(), 0
}
