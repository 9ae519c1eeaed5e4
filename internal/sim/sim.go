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
//
// A simulator may declare a kind solo (Solo): at most one event of that
// kind is ever pending, like a bus's one transaction end or its one
// arbitration in flight. A solo event skips the heap and waits in a
// slot of its own, so scheduling and popping it cost O(1) instead of a
// sift through every other pending event. Solo events are stamped from
// the same schedule counter as heap events and Next takes the earlier
// of the heap root and the earliest armed slot by (time, schedule
// order), so declaring a kind solo changes no pop order and no
// tie-break. Scheduling a second pending event of a solo kind panics:
// the declaration is a checked invariant, not a hint.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Kind names what an event does. Each simulator defines its own kinds.
type Kind uint8

// maxSolo bounds the solo kinds: only kinds below it can be declared
// solo (Solo).
const maxSolo = 8

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
	// The solo slots. Bit k of solo declares kind k solo; while bit k
	// of armed is set, slot[k] holds kind k's one pending event. first
	// is the earliest armed slot, meaningful while armed != 0.
	solo, armed uint8
	first       Kind
	slot        [maxSolo]event
}

type event struct {
	time float64
	seq  uint64 // schedule order; breaks ties deterministically (FIFO)
	kind Kind
	arg  int32
}

// before is the queue order: earlier time first, then schedule order.
func (e *event) before(o *event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// push adds e to the heap (sift-up).
func (s *Scheduler) push(e event) {
	if s.n == len(s.queue) {
		//arblint:alloc grows to the steady-state capacity once; Next never frees and Reset keeps it
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

// arm stores e, of a solo kind, in its slot.
func (s *Scheduler) arm(e event) {
	bit := uint8(1) << e.kind
	if s.armed&bit != 0 {
		panic(fmt.Sprintf("sim: second pending event of solo kind %d", e.kind))
	}
	s.slot[e.kind] = e
	if s.armed == 0 || e.before(&s.slot[s.first]) {
		s.first = e.kind
	}
	s.armed |= bit
}

// take disarms the earliest slot and finds the earliest of the rest.
func (s *Scheduler) take() {
	s.armed &^= 1 << s.first
	rest := s.armed
	if rest == 0 {
		return
	}
	first := Kind(bits.TrailingZeros8(rest))
	for rest &= rest - 1; rest != 0; rest &= rest - 1 {
		if k := Kind(bits.TrailingZeros8(rest)); s.slot[k].before(&s.slot[first]) {
			first = k
		}
	}
	s.first = first
}

// Solo declares the given kinds solo: at most one event of each is
// pending at any time, and it waits in a slot of its own instead of the
// heap. Scheduling a second one while the first is pending panics.
// Declare every solo kind before scheduling any event; the declarations
// outlast Reset. There are 8 slots, so each kind must be below 8.
func (s *Scheduler) Solo(kinds ...Kind) {
	if s.Pending() != 0 {
		panic("sim: solo kind declared with events pending")
	}
	for _, k := range kinds {
		if k >= maxSolo {
			panic(fmt.Sprintf("sim: solo kind %d beyond the %d slots", k, maxSolo))
		}
		s.solo |= 1 << k
	}
}

// Now returns the current simulation time.
func (s *Scheduler) Now() float64 { return s.now }

// Pending returns the number of scheduled events.
func (s *Scheduler) Pending() int { return s.n + bits.OnesCount8(s.armed) }

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
	e := event{time: t, seq: s.seq, kind: kind, arg: int32(arg)}
	if s.solo>>kind&1 != 0 {
		s.arm(e)
	} else {
		s.push(e)
	}
	s.seq++
}

// After schedules an event at now+d (d must be >= 0).
func (s *Scheduler) After(d float64, kind Kind, arg int) { s.At(s.now+d, kind, arg) }

// Next removes the earliest pending event due at or before until,
// advances the clock to its time and returns its kind and argument. ok
// is false, and nothing changes, when no event is due by then; pass
// math.Inf(1) to drain the queue.
func (s *Scheduler) Next(until float64) (kind Kind, arg int, ok bool) {
	if s.armed != 0 {
		if e := &s.slot[s.first]; s.n == 0 || e.before(&s.queue[0]) {
			if e.time > until {
				return 0, 0, false
			}
			s.now, kind, arg = e.time, e.kind, int(e.arg)
			s.take()
			return kind, arg, true
		}
	}
	if s.n == 0 || s.queue[0].time > until {
		return 0, 0, false
	}
	top := &s.queue[0]
	s.now, kind, arg = top.time, top.kind, int(top.arg)
	s.pop()
	return kind, arg, true
}

// Reset discards all pending events and rewinds the clock to zero. The
// queue's backing array and the solo declarations are retained.
func (s *Scheduler) Reset() {
	s.now = 0
	s.seq = 0
	s.n = 0
	s.armed = 0
}
