package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"busarb/internal/obs"
)

// The traced run records a span around each call the benchmark makes
// into a layer, keeps the spans in a buffer allocated up front, joins
// the daemon's observer events to the client spans by agent, and writes
// everything out when the run ends. Spans are recorded only from the
// benchmark's own files.

type spanName uint8

const (
	spanRef      spanName = iota + 1 // a reference-kernel slice
	spanSimulate                     // one busarb.Simulate call
	spanGC                           // the forced collection ending a pass of Simulate calls
	spanOp                           // one closed-loop cycle: acquire, then release
	spanAcquire                      // client.Acquire
	spanRelease                      // client.Release
	spanQueue                        // arbd shard: request line asserted to service start
	spanHold                         // arbd shard: service start to service end
)

var spanNames = [...]string{
	spanRef:      "ref",
	spanSimulate: "bussim.Simulate",
	spanGC:       "gc",
	spanOp:       "op",
	spanAcquire:  "client.Acquire",
	spanRelease:  "client.Release",
	spanQueue:    "arbd.queue",
	spanHold:     "arbd.hold",
}

// span is pointer-free, so a large span buffer costs the collector
// nothing to scan.
type span struct {
	name       spanName
	agent      int32
	op         int32 // operation ID: the spans of one cycle share it
	parent     int32 // index+1 of the parent span, 0 for none
	start, end int64 // ns since the tracer's epoch
}

// shardEvent is one observer event of the daemon, stamped on the
// benchmark's clock as it arrives (the observer runs synchronously in
// the shard loop).
type shardEvent struct {
	at    int64
	kind  obs.Kind
	agent int32
}

type tracer struct {
	epoch   time.Time
	spans   []span
	nspans  atomic.Int64
	events  []shardEvent
	nevents atomic.Int64
	ops     atomic.Int32
	dropped atomic.Int64
}

func newTracer(maxSpans, maxEvents int) *tracer {
	return &tracer{
		epoch:  time.Now(),
		spans:  make([]span, maxSpans),
		events: make([]shardEvent, maxEvents),
	}
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// add stores s and returns its index+1, or 0 when the buffer is full.
func (t *tracer) add(s span) int32 {
	i := t.nspans.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return 0
	}
	t.spans[i] = s
	return int32(i + 1)
}

// span records a span with no parent.
func (t *tracer) span(name spanName, start, end time.Time) {
	t.add(span{name: name, start: t.ns(start), end: t.ns(end)})
}

// reserve hands out the next operation ID.
func (t *tracer) reserve() int32 { return t.ops.Add(1) }

// op records one closed-loop cycle of agent: acquire over [t0, t1],
// release over [t2, t3].
func (t *tracer) op(op int32, agent int, t0, t1, t2, t3 time.Time) {
	p := t.add(span{name: spanOp, agent: int32(agent), op: op, start: t.ns(t0), end: t.ns(t3)})
	t.add(span{name: spanAcquire, agent: int32(agent), op: op, parent: p, start: t.ns(t0), end: t.ns(t1)})
	t.add(span{name: spanRelease, agent: int32(agent), op: op, parent: p, start: t.ns(t2), end: t.ns(t3)})
}

// OnEvent implements obs.Probe for arbd.Config.Observer. Two shards may
// call it at once; each event takes its own slot.
func (t *tracer) OnEvent(e obs.Event) {
	at := t.ns(time.Now())
	i := t.nevents.Add(1) - 1
	if i >= int64(len(t.events)) {
		t.dropped.Add(1)
		return
	}
	t.events[i] = shardEvent{at: at, kind: e.Kind, agent: int32(e.Agent)}
}

func (t *tracer) recorded() []span {
	return t.spans[:min(t.nspans.Load(), int64(len(t.spans)))]
}

func (t *tracer) recordedEvents() []shardEvent {
	return t.events[:min(t.nevents.Load(), int64(len(t.events)))]
}

// shardLayers are the arbd shard's per-layer numbers, from its events.
type shardLayers struct {
	queue, hold, idle  []float64 // ms
	grants, arbitrates int64
}

// joinShard turns the observer events into arbd.queue and arbd.hold
// spans, each parented to the client span of the same agent that
// encloses it, and measures the shard's queue waits, holds and idle
// gaps over the events between from and to. resourceOf maps an agent to
// its resource (identity ranges are disjoint across resources).
func (t *tracer) joinShard(resourceOf func(agent int) int, nres int, from, to int64) shardLayers {
	var events []shardEvent
	for _, e := range t.recordedEvents() {
		if e.at >= from && e.at <= to {
			events = append(events, e)
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })

	// Each agent's cycles are sequential, so its spans of one name are
	// disjoint and already in start order.
	type key struct {
		agent int32
		name  spanName
	}
	byAgent := map[key][]int32{}
	spans := t.recorded()
	for i, s := range spans {
		if s.name == spanOp || s.name == spanAcquire {
			k := key{s.agent, s.name}
			byAgent[k] = append(byAgent[k], int32(i+1))
		}
	}
	enclosing := func(agent int32, name spanName, at int64) (parent, op int32) {
		ids := byAgent[key{agent, name}]
		i := sort.Search(len(ids), func(i int) bool { return spans[ids[i]-1].start > at }) - 1
		if i >= 0 && at <= spans[ids[i]-1].end {
			return ids[i], spans[ids[i]-1].op
		}
		return 0, 0
	}

	var out shardLayers
	reqAt := map[int32]int64{}   // agent -> time its line went up
	startAt := map[int32]int64{} // agent -> service start
	lastEnd := make([]int64, nres)
	for _, e := range events {
		switch e.kind {
		case obs.RequestIssued:
			reqAt[e.agent] = e.at
		case obs.ArbitrationResolve:
			out.arbitrates++
		case obs.ServiceStart:
			out.grants++
			r := resourceOf(int(e.agent))
			if req, ok := reqAt[e.agent]; ok {
				out.queue = append(out.queue, float64(e.at-req)/1e6)
				parent, op := enclosing(e.agent, spanAcquire, e.at)
				t.add(span{name: spanQueue, agent: e.agent, op: op, parent: parent, start: req, end: e.at})
				// The resource sat free while a line was up from the
				// later of the last release and the earliest pending
				// request.
				earliest := req
				for a, at := range reqAt {
					if resourceOf(int(a)) == r {
						earliest = min(earliest, at)
					}
				}
				if lastEnd[r] > 0 {
					out.idle = append(out.idle, float64(e.at-max(lastEnd[r], earliest))/1e6)
				}
				delete(reqAt, e.agent)
			}
			startAt[e.agent] = e.at
		case obs.ServiceEnd:
			r := resourceOf(int(e.agent))
			lastEnd[r] = e.at
			if st, ok := startAt[e.agent]; ok {
				out.hold = append(out.hold, float64(e.at-st)/1e6)
				parent, op := enclosing(e.agent, spanOp, e.at)
				t.add(span{name: spanHold, agent: e.agent, op: op, parent: parent, start: st, end: e.at})
				delete(startAt, e.agent)
			}
		}
	}
	return out
}

// selfTime is a span's duration minus the part of it its children
// cover (overlapping children counted once).
func selfTime(s span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.start, s.start), min(c.end, s.end)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, reach := int64(0), s.start
	for _, x := range iv {
		lo := max(x[0], reach)
		if x[1] > lo {
			covered += x[1] - lo
			reach = x[1]
		}
	}
	return s.end - s.start - covered
}

// spanSummary is one line of the traced run's per-span table.
type spanSummary struct {
	name                string
	count               int
	durP50ms, selfP50ms float64
}

// summarize groups the spans by name, with median duration and median
// self time.
func summarize(spans []span) []spanSummary {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.parent > 0 && int(s.parent) <= len(spans) {
			children[s.parent-1] = append(children[s.parent-1], s)
		}
	}
	durs := map[spanName][]float64{}
	selfs := map[spanName][]float64{}
	for i, s := range spans {
		durs[s.name] = append(durs[s.name], float64(s.end-s.start)/1e6)
		selfs[s.name] = append(selfs[s.name], float64(selfTime(s, children[i]))/1e6)
	}
	var out []spanSummary
	for name := spanRef; name <= spanHold; name++ {
		if d := durs[name]; len(d) > 0 {
			out = append(out, spanSummary{spanNames[name], len(d), median(d), median(selfs[name])})
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"op":%d,"agent":%d}`+"\n",
			i+1, spanNames[s.name], s.start, s.end, s.parent, s.op, s.agent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ioCounts are the transport calls a countingListener saw.
type ioCounts struct {
	reads, writes, bytes atomic.Int64
}

type ioSnapshot struct{ reads, writes, bytes int64 }

// snapshot reads the counts; a nil ioCounts reads as zero.
func (c *ioCounts) snapshot() ioSnapshot {
	if c == nil {
		return ioSnapshot{}
	}
	return ioSnapshot{c.reads.Load(), c.writes.Load(), c.bytes.Load()}
}

// countingListener wraps the binary server's listener and counts the
// server side's Read and Write calls and bytes on every accepted
// connection.
type countingListener struct {
	net.Listener
	c *ioCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{conn, l.c}, nil
}

type countingConn struct {
	net.Conn
	c *ioCounts
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.reads.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writes.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}
