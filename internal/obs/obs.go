// Package obs is the cross-simulator observability layer: a small
// event vocabulary covering the lifecycle of a bus request — issue,
// arbitration, service — plus simulator-specific occurrences (cache
// misses, coherence invalidations, memory-bank conflicts), delivered
// through the Probe interface to pluggable consumers.
//
// Every simulator configuration (bussim, cyclesim, mp, snoop, membus)
// carries an Observer field of type Probe. A nil Observer is the fast
// path: the instrumented hot loops guard every emission with a nil
// check and construct no Event values, so an unobserved run costs
// nothing — the §4.1 benchmarks are bit-identical and allocation-free
// with Observer == nil (pinned by allocation-guard tests).
//
// Built-in consumers:
//
//   - JSONLWriter streams each event as one JSON line (the trace
//     export format; schema documented on the type).
//   - Metrics aggregates windowed per-agent utilization, waiting-time
//     quantiles, and arbitration counts over time.
//   - Counter tallies events by kind (cheap; for tests and smoke
//     checks).
//   - Buffer retains events in memory; TextWriter renders them as
//     human-readable lines; Multi fans out; Filter selects kinds.
//
// The package generalizes the §2.1 observation that the arbiter's
// state "is available and can be monitored on the bus ... useful for
// software initialization of the system and for diagnosing system
// failures" from the arbitration lines to the whole machine.
package obs

import (
	"fmt"
	"io"
	"sync"
)

// Kind enumerates event types.
type Kind int

// The event vocabulary, in rough lifecycle order of a request. The
// first six kinds are common to every simulator; the rest are
// simulator-specific.
const (
	// RequestIssued: an agent asserted the bus request line.
	RequestIssued Kind = iota
	// ArbitrationStart: an arbitration began (Agents holds the
	// request-line snapshot, ascending).
	ArbitrationStart
	// ArbitrationResolve: an arbitration selected a winner (Agent).
	ArbitrationResolve
	// Repass: an arbitration pass was empty (RR3 §3.1) and a new pass
	// follows immediately, costing another arbitration delay.
	Repass
	// ServiceStart: the winner assumed bus mastership. For the
	// snooping machine, Label names the transaction kind (BusRd,
	// BusRdX, BusUpgr, BusWB).
	ServiceStart
	// ServiceEnd: the bus transaction finished.
	ServiceEnd
	// CacheMiss: a private-cache miss became bus traffic (mp and
	// snoop machines; Aux is the block number where known).
	CacheMiss
	// Invalidation: a snooped transaction invalidated this agent's
	// cached copy (snoop machine; Aux is the block number).
	Invalidation
	// BankConflict: a transfer found its memory bank busy and had to
	// wait for it (membus machine; Aux is the bank index).
	BankConflict
)

// String returns the event kind's name (also the JSONL "ev" value).
func (k Kind) String() string {
	switch k {
	case RequestIssued:
		return "request"
	case ArbitrationStart:
		return "arb-start"
	case ArbitrationResolve:
		return "arb-resolve"
	case Repass:
		return "arb-repass"
	case ServiceStart:
		return "service-start"
	case ServiceEnd:
		return "service-end"
	case CacheMiss:
		return "cache-miss"
	case Invalidation:
		return "invalidation"
	case BankConflict:
		return "bank-conflict"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one simulation occurrence. Time is in the emitting
// simulator's time unit (bus-transaction units everywhere except
// cyclesim, which counts ticks of half a transaction).
type Event struct {
	Time   float64
	Kind   Kind
	Agent  int   // the acting agent, 0 when not applicable
	Agents []int // arbitration snapshot (ArbitrationStart only)
	Urgent bool  // request class (RequestIssued only)
	// Level is the arbitration level of an ArbitrationResolve on a
	// topology run: 0 at the root bus, increasing toward the leaf
	// clusters. Flat-bus events carry 0. A tree grant emits one
	// resolve event per level of the winner's path, all with the
	// winning agent; only the level-0 event counts as an arbitration
	// (the deeper ones are the same settle seen at inner buses).
	Level int
	// Wait is the per-hop wait of an ArbitrationResolve on a topology
	// run: resolve time minus the assert time of the level's winning
	// request line (the agent's request at the leaf, the cluster line
	// one level up). Zero on flat-bus events.
	Wait float64
	// Aux carries kind-specific detail: the block number for CacheMiss
	// and Invalidation, the bank index for BankConflict.
	Aux int64
	// Label carries kind-specific text: the coherence transaction name
	// on the snooping machine's ServiceStart events.
	Label string
}

// String renders the event on one line.
func (e Event) String() string {
	switch e.Kind {
	case ArbitrationStart:
		return fmt.Sprintf("%10.2f  %-13s competitors=%v", e.Time, e.Kind, e.Agents)
	case ArbitrationResolve:
		if e.Wait > 0 || e.Level > 0 {
			return fmt.Sprintf("%10.2f  %-13s agent=%d level=%d wait=%.2f",
				e.Time, e.Kind, e.Agent, e.Level, e.Wait)
		}
		return fmt.Sprintf("%10.2f  %-13s agent=%d", e.Time, e.Kind, e.Agent)
	case RequestIssued:
		u := ""
		if e.Urgent {
			u = " urgent"
		}
		return fmt.Sprintf("%10.2f  %-13s agent=%d%s", e.Time, e.Kind, e.Agent, u)
	case Repass:
		return fmt.Sprintf("%10.2f  %-13s", e.Time, e.Kind)
	case CacheMiss, Invalidation:
		return fmt.Sprintf("%10.2f  %-13s agent=%d block=%d", e.Time, e.Kind, e.Agent, e.Aux)
	case BankConflict:
		return fmt.Sprintf("%10.2f  %-13s agent=%d bank=%d", e.Time, e.Kind, e.Agent, e.Aux)
	default:
		if e.Label != "" {
			return fmt.Sprintf("%10.2f  %-13s agent=%d %s", e.Time, e.Kind, e.Agent, e.Label)
		}
		return fmt.Sprintf("%10.2f  %-13s agent=%d", e.Time, e.Kind, e.Agent)
	}
}

// Probe consumes simulation events. Implementations are called from
// the simulator's single-threaded event loop: they must not block and
// need no internal locking unless they are shared across simulations.
// Of the built-in consumers only Buffer locks internally; any other is
// driven and read by one goroutine, as each arbd shard's loop does
// with its own.
//
// A Probe that retains an Event past the call must not assume the
// Agents slice stays valid — simulators hand probes a private copy of
// the arbitration snapshot, but probes that re-forward events (Multi,
// Filter) pass the same slice on.
type Probe interface {
	OnEvent(e Event)
}

// Multi fans events out to several probes.
type Multi []Probe

// OnEvent implements Probe.
func (m Multi) OnEvent(e Event) {
	for _, p := range m {
		p.OnEvent(e)
	}
}

// Filter forwards only events whose kind is enabled.
type Filter struct {
	Next  Probe
	Kinds map[Kind]bool
}

// OnEvent implements Probe.
func (f *Filter) OnEvent(e Event) {
	if f.Kinds[e.Kind] {
		f.Next.OnEvent(e)
	}
}

// Buffer is an in-memory Probe, safe for concurrent use.
type Buffer struct {
	mu     sync.Mutex
	events []Event
	// Cap bounds memory; 0 means unbounded. When full, the oldest
	// events are dropped (a ring of the most recent activity, which is
	// what post-mortem debugging wants).
	Cap int
}

// OnEvent implements Probe.
func (b *Buffer) OnEvent(e Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.events = append(b.events, e)
	if b.Cap > 0 && len(b.events) > b.Cap {
		drop := len(b.events) - b.Cap
		b.events = append(b.events[:0], b.events[drop:]...)
	}
}

// Events returns a copy of the recorded events.
func (b *Buffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Event, len(b.events))
	copy(out, b.events)
	return out
}

// Len returns the number of buffered events.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events)
}

// Reset discards all buffered events.
func (b *Buffer) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.events = b.events[:0]
}

// TextWriter is a Probe that renders each event as a text line.
type TextWriter struct {
	W io.Writer
	// Err holds the first write error; subsequent events are dropped.
	Err error
}

// OnEvent implements Probe.
func (w *TextWriter) OnEvent(e Event) {
	if w.Err != nil {
		return
	}
	_, w.Err = fmt.Fprintln(w.W, e.String())
}

// Counter tallies events by kind: the counting probe for tests and
// cheap smoke checks.
type Counter struct {
	// ByKind[k] is the number of events of kind k seen so far.
	ByKind [BankConflict + 1]int64
	// Total is the number of events seen.
	Total int64
}

// OnEvent implements Probe.
func (c *Counter) OnEvent(e Event) {
	c.Total++
	if int(e.Kind) >= 0 && int(e.Kind) < len(c.ByKind) {
		c.ByKind[e.Kind]++
	}
}

// Count returns the tally for one kind.
func (c *Counter) Count(k Kind) int64 {
	if int(k) < 0 || int(k) >= len(c.ByKind) {
		return 0
	}
	return c.ByKind[k]
}

// Summary is the cross-simulator headline result: every simulator's
// Result type implements Summary() with these fields, which is what
// the busarb.Run facade's Report interface exposes uniformly.
type Summary struct {
	// Simulator names the producing model: "bussim", "cyclesim", "mp",
	// "snoop", "membus".
	Simulator string
	// Protocol is the arbitration protocol's name.
	Protocol string
	// N is the number of arbitrating agents.
	N int
	// Time is the simulated span in the simulator's time unit.
	Time float64
	// Grants is the number of bus tenures granted.
	Grants int64
	// Utilization is the fraction of Time the bus was busy.
	Utilization float64
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("%s/%s n=%d time=%.4g grants=%d util=%.3f",
		s.Simulator, s.Protocol, s.N, s.Time, s.Grants, s.Utilization)
}
