// Package sim provides a minimal discrete-event scheduler: a time-ordered
// queue of typed events with deterministic FIFO tie-breaking for
// simultaneous events. The queueing-level simulators (packages bussim,
// snoop and membus) run on it; the cycle-level model in cyclesim steps
// its own clock.
//
// An event is a kind and an integer argument, both chosen by the
// simulator, which pops events with Next and dispatches them with a
// switch; whatever an event needs beyond its argument lives in the
// simulator's own state. Events hold no pointers, so the queue allocates
// no closures and the garbage collector neither scans it nor pays write
// barriers when it sifts. The queue is a concrete index-based binary
// heap over a slice of event structs (container/heap would box every
// element through interface{}); scheduling is allocation free once the
// backing array has grown to its steady-state capacity (Next never
// frees).
package sim

import (
	"fmt"
	"math"
)

// Kind names what an event does. Each simulator defines its own kinds.
type Kind uint8

// Scheduler is a discrete-event clock and pending-event queue. The zero
// value is ready to use at time 0.
type Scheduler struct {
	now float64
	seq uint64
	// queue[:n] is the heap. Only growth stores the slice header: the
	// store is a pointer write, which pays a GC write barrier whenever
	// a collection is marking.
	queue []event
	n     int
}

type event struct {
	time float64
	seq  uint64 // schedule order; breaks ties deterministically (FIFO)
	kind Kind
	arg  int32
}

// before is the heap order: earlier time first, then schedule order.
func (e *event) before(o *event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// push adds e to the heap (sift-up).
func (s *Scheduler) push(e event) {
	if s.n == len(s.queue) {
		s.queue = append(s.queue, e)
	}
	q := s.queue
	i := s.n
	s.n++
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
}

// pop removes the minimum event (sift-down).
func (s *Scheduler) pop() {
	s.n--
	n := s.n
	q := s.queue
	last := q[n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		child := l
		if r := l + 1; r < n && q[r].before(&q[l]) {
			child = r
		}
		if !q[child].before(&last) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = last
}

// Now returns the current simulation time.
func (s *Scheduler) Now() float64 { return s.now }

// Pending returns the number of scheduled events.
func (s *Scheduler) Pending() int { return s.n }

// At schedules an event of the given kind and argument at absolute
// time t. Scheduling in the past panics: it would silently corrupt
// causality.
func (s *Scheduler) At(t float64, kind Kind, arg int) {
	if t < s.now || math.IsNaN(t) {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	if int(int32(arg)) != arg {
		panic(fmt.Sprintf("sim: event argument %d overflows int32", arg))
	}
	s.push(event{time: t, seq: s.seq, kind: kind, arg: int32(arg)})
	s.seq++
}

// After schedules an event at now+d (d must be >= 0).
func (s *Scheduler) After(d float64, kind Kind, arg int) { s.At(s.now+d, kind, arg) }

// Next removes the earliest pending event due at or before until,
// advances the clock to its time and returns its kind and argument. ok
// is false, and nothing changes, when no event is due by then; pass
// math.Inf(1) to drain the queue.
func (s *Scheduler) Next(until float64) (kind Kind, arg int, ok bool) {
	if s.n == 0 || s.queue[0].time > until {
		return 0, 0, false
	}
	top := &s.queue[0]
	s.now, kind, arg = top.time, top.kind, int(top.arg)
	s.pop()
	return kind, arg, true
}

// Reset discards all pending events and rewinds the clock to zero. The
// queue's backing array is retained.
func (s *Scheduler) Reset() {
	s.now = 0
	s.seq = 0
	s.n = 0
}
