package bitarb

import (
	"fmt"
	"math/bits"
)

// Arrivals holds the waiting-time counters of both FCFS variants
// (§3.2) without storing them. Every waiting agent counts each pulse,
// except that a counter still at 0 ignores the pulses of its own
// window; so a counter follows from when its agent arrived. With Q
// pulses seen so far, a waiting agent's counter is 0 while its arrival
// window is open and min(Max, Q−S) once it has closed, where S is Q at
// the moment the window closed. Along arrival order the counters are
// therefore non-increasing, and agents sharing a counter form one
// contiguous run: one window, or the prefix that has saturated at Max.
//
// The two variants differ in what a pulse is. For FCFS2 it is an
// a-incr pulse, sent by each new request (Pulse), and the requests of
// one sensing window share a window. For FCFS1 it is a lost
// arbitration: before each contention pass the waiting set becomes the
// request lines (Follow), so the agents requesting together for the
// first time share a window, and after it one Tick counts the pass
// against every one of them and Zero resets the winner.
//
// core builds its other FCFS-based protocols on the same two drives.
// The ticket scheme is FCFS2 whose every request closes its own
// window, so a counter counts the tickets drawn after its own. The §5
// hybrid is FCFS2 whose ties MaxInRR breaks with RR1's round-robin
// bit. FCFS2+prio runs one FCFS2 per increment line, and Freeze hands
// an agent's counter to the other line's bank when its class changes.
// FCFS1+prio runs FCFS1 over the winner's class, and under its
// overflow policy Wrap takes the counters that reach 2^k back to 0.
//
// Arrivals keeps Q, each agent's S and the waiting agents in arrival
// order. A pulse costs O(1) amortized instead of a bit-plane bank's
// O(bits · words) ripple-carry add, and MaxIn reads the winner off the
// front of the order in O(words + run) instead of running a plane
// tournament. Observably it is exactly a bank of saturating counters
// plus a waiting bitmap, driven the way FCFS2 and FCFS1 drive them
// (see Pulse, Leave, Follow and Zero).
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

// InitArrivals makes each of as zeroed counters of the given bit width
// (1..63) for identities 1..n, with no agent waiting, and each of vs an
// empty bitmap for identities 1..n. Two allocations back them all, one
// of words and one of arrival-order indices, so a protocol's counter
// banks and class bitmaps cost two allocations between them.
//
//arblint:alloc constructor: one word block and one index block per arbiter, at setup
func InitArrivals(cbits, n int, as []*Arrivals, vs ...*Vec) {
	if cbits < 1 || cbits > 63 {
		panic(fmt.Sprintf("bitarb: counter width %d out of range 1..63", cbits))
	}
	if n < 1 {
		panic(fmt.Sprintf("bitarb: Arrivals need at least 1 identity, got %d", n))
	}
	nw := wordsFor(n)
	words := make([]uint64, len(as)*(nw+n+1)+len(vs)*nw)
	idx := make([]int32, len(as)*(3*n+1))
	for _, a := range as {
		*a = Arrivals{
			n:     n,
			cbits: cbits,
			max:   1<<uint(cbits) - 1,
			wait:  Vec{n: n, w: words[:nw:nw]},
			stamp: words[nw : nw+n+1 : nw+n+1],
			pos:   idx[: n+1 : n+1],
			ring:  idx[n+1 : 3*n+1 : 3*n+1],
		}
		words, idx = words[nw+n+1:], idx[3*n+1:]
	}
	for _, v := range vs {
		v.n, v.w = n, words[:nw:nw]
		words = words[nw:]
	}
}

// Pulse records identity id's a-incr pulse: Tick(sameWindow), then
// Join(id). Every waiting agent counts it — except, when sameWindow,
// the agents whose counter is still 0, which arrived inside the same
// sensing window — and then id waits with counter 0.
func (a *Arrivals) Pulse(id int, sameWindow bool) {
	a.wait.check(id)
	a.Tick(sameWindow)
	// join, written out: FCFS2 pulses on every request, and join is
	// too large to inline.
	if a.tail == len(a.ring) {
		a.compact()
	}
	a.ring[a.tail] = int32(id)
	a.pos[id] = int32(a.tail)
	a.tail++
	a.wait.w[id/wordBits] |= 1 << uint(id%wordBits)
}

// Tick counts one pulse against every waiting agent whose counter is
// not 0. Unless sameWindow, the open window closes first, so that its
// members, at counter 0, count it too: the saturating increment of
// every waiting counter (except those at 0 when sameWindow).
// O(1) plus the open window's entries.
func (a *Arrivals) Tick(sameWindow bool) {
	if !sameWindow {
		// The open window closes: its members count from this pulse on.
		for p := a.open; p < a.tail; p++ {
			if i := int(a.ring[p]); a.live(i, p) {
				a.stamp[i] = a.q
			}
		}
		a.open = a.tail
	}
	a.q++
}

// Join makes id wait with counter 0, in the open window. An id that is
// already waiting starts over, as a zeroed counter would. O(1)
// amortized.
func (a *Arrivals) Join(id int) {
	a.wait.check(id)
	a.join(id)
}

func (a *Arrivals) join(id int) {
	if a.tail == len(a.ring) {
		a.compact()
	}
	a.ring[a.tail] = int32(id)
	a.pos[id] = int32(a.tail)
	a.tail++
	a.wait.w[id/wordBits] |= 1 << uint(id%wordBits)
}

// Zero takes id off the waiting set with its counter at 0: FCFS1's
// reset on a new request or a win. The next Follow that finds id on
// the request lines has it join at counter 0.
func (a *Arrivals) Zero(id int) {
	a.wait.check(id)
	a.wait.w[id/wordBits] &^= 1 << uint(id%wordBits)
	a.stamp[id] = 0
}

// Freeze takes id off the waiting set with its counter at c, which must
// not exceed the width's maximum: a counter register handed over from
// another bank, as when an agent's request class changes.
func (a *Arrivals) Freeze(id, c int) {
	a.Zero(id)
	a.stamp[id] = uint64(c)
}

// Wrap zeroes, as Zero does, every waiting agent whose counter has
// reached c (at least 1), and returns how many: the wrap of a counter
// taken modulo c, in a field wide enough to reach c. Those agents are
// the oldest waiting ones, so the cost is O(1) per agent wrapped plus
// the dropped entries passed on the way.
func (a *Arrivals) Wrap(c int) int {
	k, p := 0, a.head
	for ; p < a.tail; p++ {
		i := int(a.ring[p])
		if !a.live(i, p) {
			continue
		}
		if a.count(i) < uint64(c) {
			break
		}
		a.Zero(i)
		k++
	}
	// Every entry before p has now left.
	a.head = p
	return k
}

// Follow makes the waiting set equal req, so that the next Tick counts
// against exactly the agents on the request lines: FCFS1's "every
// loser increments". An agent of req whose counter is 0 joins the open
// window; waiting agents req dropped leave, freezing their counters;
// and an agent of req with a frozen non-zero counter is put back into
// arrival order at that counter by a slow path that shifts the order,
// O(N) per such agent. When req only adds agents at counter 0 — a bus
// whose lines drop only on a grant — Follow costs O(words) plus O(1)
// per newcomer.
func (a *Arrivals) Follow(req *Vec) {
	if req.n != a.n {
		panic(fmt.Sprintf("bitarb: Follow size mismatch: %d != %d", req.n, a.n))
	}
	wait := a.wait.w[:len(req.w)]
	for wi, r := range req.w {
		w := wait[wi]
		if w == r {
			continue
		}
		for gone := w &^ r; gone != 0; gone &= gone - 1 {
			a.Leave(wi*wordBits + bits.TrailingZeros64(gone))
		}
		for add := r &^ w; add != 0; add &= add - 1 {
			i := wi*wordBits + bits.TrailingZeros64(add)
			if c := a.stamp[i]; c != 0 {
				a.rejoin(i, c)
			} else {
				a.join(i)
			}
		}
	}
}

// rejoin makes id, whose frozen counter c is not 0, wait again at c.
// It goes into arrival order behind every waiting agent whose counter
// is at least c and ahead of the rest, which keeps the counters
// non-increasing along the order, and its stamp is set so that it
// reads c and counts on from there. O(ring).
func (a *Arrivals) rejoin(id int, c uint64) {
	if a.tail == len(a.ring) {
		a.compact()
	}
	// Counter-0 agents all sit in the open window, and nothing ahead of
	// head is live; head passes open when every closed window is gone.
	p := max(a.open, a.head)
	for p > a.head {
		if i := int(a.ring[p-1]); a.live(i, p-1) && a.count(i) >= c {
			break
		}
		p--
	}
	for k := a.tail; k > p; k-- {
		i := a.ring[k-1]
		a.ring[k] = i
		if int(a.pos[i]) == k-1 {
			a.pos[i] = int32(k)
		}
	}
	a.ring[p], a.pos[id] = int32(id), int32(p)
	a.tail++
	a.open = max(a.open, p) + 1
	// A counter never exceeds the pulses seen, so q − c does not wrap.
	a.stamp[id] = a.q - c
	a.wait.w[id/wordBits] |= 1 << uint(id%wordBits)
}

// Leave takes id off the waiting set, freezing its counter: FCFS2's
// grant, or an agent Follow no longer finds on the request lines.
// Leaving when not waiting does nothing.
func (a *Arrivals) Leave(id int) {
	if !a.wait.Test(id) {
		return
	}
	a.stamp[id] = a.count(id)
	a.wait.w[id/wordBits] &^= 1 << uint(id%wordBits)
}

// Waits reports whether identity i waits: it pulsed or was followed,
// and has not left or been zeroed since.
func (a *Arrivals) Waits(i int) bool { return a.wait.Test(i) }

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
// largest, or -1 if req is empty: the FCFS contention pass, where the
// counter field sits above the static identity in the arbitration
// number (§3.2). It is MaxInRR(req, 0).
func (a *Arrivals) MaxIn(req *Vec) int { return a.MaxInRR(req, 0) }

// MaxInRR is MaxIn with RR1's round-robin bit between the counter and
// the identity, set for identities below last (§5's hybrid): among the
// members of req with the largest counter, the largest identity below
// last wins, else the largest of them.
// When every identity in req waits, the winner is in the run of the
// oldest waiting agent in req, so the cost is O(words + run); an
// identity that does not wait (its counter is frozen) sends MaxInRR to
// a direct scan over req's members.
func (a *Arrivals) MaxInRR(req *Vec, last int) int {
	if req.n != a.n {
		panic(fmt.Sprintf("bitarb: MaxIn size mismatch: %d != %d", req.n, a.n))
	}
	var any uint64
	for wi, w := range req.w {
		if w&^a.wait.w[wi] != 0 {
			return a.scan(req, last)
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
	c, bestR := a.count(best), rrRank(best, last, a.n)
	for p++; p < a.tail; p++ {
		i := int(a.ring[p])
		if !a.live(i, p) {
			continue
		}
		if a.count(i) != c {
			break
		}
		if r := rrRank(i, last, a.n); r > bestR && req.w[i/wordBits]&(1<<uint(i%wordBits)) != 0 {
			best, bestR = i, r
		}
	}
	return best
}

// rrRank orders identities as the round-robin bit above the static
// identity does: those below last first, each part by identity.
func rrRank(i, last, n int) int {
	if i < last {
		return i + n
	}
	return i
}

// scan is MaxInRR over req's members one by one.
func (a *Arrivals) scan(req *Vec, last int) int {
	best, bestC, bestR := -1, uint64(0), 0
	for wi, w := range req.w {
		for w != 0 {
			i := wi*wordBits + bits.TrailingZeros64(w)
			w &= w - 1
			if c, r := a.get(i), rrRank(i, last, a.n); best < 0 || c > bestC || c == bestC && r > bestR {
				best, bestC, bestR = i, c, r
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
