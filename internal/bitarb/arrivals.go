package bitarb

import (
	"fmt"
	"math/bits"
)

// Arrivals holds FCFS2's waiting-time counters (§3.2) without storing
// them. Every waiting agent increments its counter on each a-incr
// pulse, except that a counter still at 0 ignores the pulses of its
// own sensing window; so a counter is the number of requests that
// arrived after this one, and it follows from arrival order alone.
// With Q pulses seen so far, a waiting agent's counter is 0 while its
// arrival window is open and min(Max, Q−S) once it has closed, where S
// is Q at the moment the window closed. Along arrival order the
// counters are therefore non-increasing, and agents sharing a counter
// form one contiguous run: one window, or the prefix that has
// saturated at Max.
//
// Arrivals keeps Q, each agent's S and the waiting agents in arrival
// order. A pulse costs O(1) amortized instead of Counters' O(bits ·
// words) ripple-carry add, and MaxIn reads the winner off the front of
// the order in O(words + run) instead of running a plane tournament.
// Observably it is exactly a Counters bank plus a waiting bitmap
// driven the way FCFS2 drives them (see Pulse and Leave).
type Arrivals struct {
	n     int
	cbits int
	max   uint64
	q     uint64 // pulses so far
	wait  Vec    // pulsed and not yet left
	// stamp[i] is S while i waits in a closed window, and i's frozen
	// counter while i does not wait.
	stamp []uint64
	// ring[head:tail] lists agents in arrival order. The entry at p is
	// live iff its agent waits and pos[agent] == p; the rest (agents
	// that left or pulsed again) are dropped lazily, and the live ones
	// are compacted to the front when the ring fills. A waiting agent
	// has exactly one live entry, so a capacity of 2N leaves at least N
	// free slots after each compaction. Entries at open or later belong
	// to the open window.
	ring             []int32
	pos              []int32
	head, tail, open int
}

// NewArrivals returns zeroed counters of the given bit width (1..63)
// for identities 1..n, with no agent waiting.
//
//arblint:alloc constructor: one arrival log per arbiter, at setup
func NewArrivals(cbits, n int) *Arrivals {
	if cbits < 1 || cbits > 63 {
		panic(fmt.Sprintf("bitarb: counter width %d out of range 1..63", cbits))
	}
	if n < 1 {
		panic(fmt.Sprintf("bitarb: Arrivals need at least 1 identity, got %d", n))
	}
	idx := make([]int32, 3*n+1)
	return &Arrivals{
		n:     n,
		cbits: cbits,
		max:   1<<uint(cbits) - 1,
		wait:  Vec{n: n, w: make([]uint64, wordsFor(n))},
		stamp: make([]uint64, n+1),
		pos:   idx[: n+1 : n+1],
		ring:  idx[n+1:],
	}
}

// Pulse records identity id's a-incr pulse: every waiting agent counts
// it — except, when sameWindow, the agents whose counter is still 0,
// which arrived inside the same sensing window — and then id waits with
// counter 0. It is Counters' Inc(wait) (IncExceptZero(wait) when
// sameWindow) followed by Zero(id) and wait.Set(id). An id that is
// already waiting starts over, as Zero would make it.
func (a *Arrivals) Pulse(id int, sameWindow bool) {
	a.wait.check(id)
	if !sameWindow {
		// The open window closes: its members count from this pulse on.
		for p := a.open; p < a.tail; p++ {
			if i := int(a.ring[p]); a.live(i, p) {
				a.stamp[i] = a.q
			}
		}
	}
	a.q++
	if a.tail == len(a.ring) {
		a.compact()
	}
	if !sameWindow {
		a.open = a.tail
	}
	a.ring[a.tail] = int32(id)
	a.pos[id] = int32(a.tail)
	a.tail++
	a.wait.w[id/wordBits] |= 1 << uint(id%wordBits)
}

// Leave takes id off the waiting set (it was granted), freezing its
// counter: Counters' wait.Clear(id). Leaving when not waiting does
// nothing.
func (a *Arrivals) Leave(id int) {
	if !a.wait.Test(id) {
		return
	}
	a.stamp[id] = a.count(id)
	a.wait.w[id/wordBits] &^= 1 << uint(id%wordBits)
}

// Get returns identity i's counter value.
func (a *Arrivals) Get(i int) int {
	a.wait.check(i)
	return int(a.get(i))
}

func (a *Arrivals) get(i int) uint64 {
	if a.wait.w[i/wordBits]&(1<<uint(i%wordBits)) == 0 {
		return a.stamp[i]
	}
	return a.count(i)
}

// count is waiting agent i's counter.
func (a *Arrivals) count(i int) uint64 {
	if int(a.pos[i]) >= a.open {
		return 0
	}
	if d := a.q - a.stamp[i]; d < a.max {
		return d
	}
	return a.max
}

func (a *Arrivals) live(i, p int) bool {
	return int(a.pos[i]) == p && a.wait.w[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// compact moves the live entries to the front of the ring, in order.
func (a *Arrivals) compact() {
	k, open := 0, 0
	for p := a.head; p < a.tail; p++ {
		if i := int(a.ring[p]); a.live(i, p) {
			a.ring[k], a.pos[i] = int32(i), int32(k)
			k++
		}
		if p < a.open {
			open = k
		}
	}
	a.head, a.tail, a.open = 0, k, open
}

// MaxIn returns the identity in req whose (counter, identity) pair is
// largest, or -1 if req is empty: the same winner as Counters.MaxIn.
// When every identity in req waits, the winner is in the run of the
// oldest waiting agent in req, so the cost is O(words + run); an
// identity that does not wait (its counter is frozen) sends MaxIn to a
// direct scan over req's members.
func (a *Arrivals) MaxIn(req *Vec) int {
	if req.n != a.n {
		panic(fmt.Sprintf("bitarb: MaxIn size mismatch: %d != %d", req.n, a.n))
	}
	var any uint64
	for wi, w := range req.w {
		if w&^a.wait.w[wi] != 0 {
			return a.scan(req)
		}
		any |= w
	}
	if any == 0 {
		return -1
	}
	// Entries ahead of the oldest live one are dead for good.
	p := a.head
	for !a.live(int(a.ring[p]), p) {
		p++
	}
	a.head = p
	for ; ; p++ {
		if i := int(a.ring[p]); req.w[i/wordBits]&(1<<uint(i%wordBits)) != 0 && a.live(i, p) {
			break
		}
	}
	best := int(a.ring[p])
	c := a.count(best)
	for p++; p < a.tail; p++ {
		i := int(a.ring[p])
		if !a.live(i, p) {
			continue
		}
		if a.count(i) != c {
			break
		}
		if i > best && req.w[i/wordBits]&(1<<uint(i%wordBits)) != 0 {
			best = i
		}
	}
	return best
}

// scan is MaxIn over req's members one by one.
func (a *Arrivals) scan(req *Vec) int {
	best, bestC := -1, uint64(0)
	for wi, w := range req.w {
		for w != 0 {
			i := wi*wordBits + bits.TrailingZeros64(w)
			w &= w - 1
			// Ascending identities: >= breaks ties toward the higher one.
			if c := a.get(i); best < 0 || c >= bestC {
				best, bestC = i, c
			}
		}
	}
	return best
}

// Reset zeroes every counter and empties the waiting set.
func (a *Arrivals) Reset() {
	a.wait.Reset()
	clear(a.stamp)
	a.q, a.head, a.tail, a.open = 0, 0, 0, 0
}

// Clone returns a deep copy (verification hook).
func (a *Arrivals) Clone() *Arrivals {
	c := NewArrivals(a.cbits, a.n)
	copy(c.wait.w, a.wait.w)
	copy(c.stamp, a.stamp)
	copy(c.pos, a.pos)
	copy(c.ring[a.head:a.tail], a.ring[a.head:a.tail])
	c.q, c.head, c.tail, c.open = a.q, a.head, a.tail, a.open
	return c
}
