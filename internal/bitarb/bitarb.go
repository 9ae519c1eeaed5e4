// Package bitarb is the word-wide arbitration kernel: request lines and
// arbitration numbers represented as []uint64 words, with one parallel
// contention pass (the maximum-finding arbitration of §2.1) resolved in
// O(words) branch-free word operations per bit-plane instead of the
// O(N·width) per-agent boolean scans of the settle model.
//
// The kernel is the software form of the classic hardware round-robin
// arbiter construction: a thermometer mask splits the request vector
// into a high-priority and a low-priority segment (req & thermo and
// req & ^thermo), each segment is reduced with plain word arithmetic,
// and the two results are combined — exactly the structure of
// high-speed parallel RR arbiters. Three layers are provided:
//
//   - Vec: a bitmap over agent identities with word-wise maximum-finding
//     (Max, MaxBelow). MaxBelow(limit) is the thermometer-mask segment
//     split: the highest set bit strictly below limit, i.e. the winner
//     of the high-priority segment of a round-robin scan.
//   - Planes: arbitration numbers stored as bit-planes (one Vec-shaped
//     word row per number bit). Resolve runs one contention pass — the
//     MSB-first tournament the wired-OR lines settle to — as width
//     masked AND-reductions over the candidate words.
//   - Counters: the FCFS waiting-time counters (§3.2) as bit-planes
//     with a word-parallel saturating ripple-carry increment, so
//     "every waiting agent increments" costs O(bits·words) instead of
//     O(N).
//
// Identities are 1..n (identity 0 is reserved to mean "no competitor",
// §2.1); bit i of the word row carries agent i, so bit 0 is never set.
// All operations are allocation-free after construction; the packages
// riding on the kernel (contention, core) keep the boolean wired-OR
// settle as the oracle and pin bit-identical winner sequences against
// it.
package bitarb

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// wordsFor returns the number of uint64 words needed to hold bit
// indices 0..n.
func wordsFor(n int) int { return n/wordBits + 1 }

// Vec is a bitmap over agent identities 1..n: the request lines of one
// arbitration, one bit per agent, packed into uint64 words.
type Vec struct {
	n int
	w []uint64
}

// NewVec returns an empty bitmap for identities 1..n.
//
//arblint:alloc constructor: one bitmap per arbiter, at setup
func NewVec(n int) *Vec {
	if n < 1 {
		panic(fmt.Sprintf("bitarb: Vec needs at least 1 identity, got %d", n))
	}
	return &Vec{n: n, w: make([]uint64, wordsFor(n))}
}

// InitVecs makes each of vs an empty bitmap for identities 1..n, all
// backed by one word allocation: a driver's live request lines and its
// arbitration snapshot cost a single allocation between them.
//
//arblint:alloc constructor: one word block per driver, at setup
func InitVecs(n int, vs ...*Vec) {
	if n < 1 {
		panic(fmt.Sprintf("bitarb: Vec needs at least 1 identity, got %d", n))
	}
	nw := wordsFor(n)
	words := make([]uint64, nw*len(vs))
	for i, v := range vs {
		v.n = n
		v.w = words[i*nw : (i+1)*nw : (i+1)*nw]
	}
}

// N returns the highest identity the bitmap can hold.
func (v *Vec) N() int { return v.n }

// Set asserts identity i's bit.
func (v *Vec) Set(i int) {
	v.check(i)
	v.w[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear releases identity i's bit.
func (v *Vec) Clear(i int) {
	v.check(i)
	v.w[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Test reports whether identity i's bit is set.
func (v *Vec) Test(i int) bool {
	v.check(i)
	return v.w[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (v *Vec) check(i int) {
	if i < 1 || i > v.n {
		panic(fmt.Sprintf("bitarb: identity %d out of range 1..%d", i, v.n))
	}
}

// Any reports whether any bit is set.
func (v *Vec) Any() bool {
	for _, w := range v.w {
		if w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set bits.
func (v *Vec) Count() int {
	c := 0
	for _, w := range v.w {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset clears every bit.
func (v *Vec) Reset() {
	for i := range v.w {
		v.w[i] = 0
	}
}

// CopyFrom makes v a copy of o (same n required).
func (v *Vec) CopyFrom(o *Vec) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitarb: CopyFrom size mismatch: %d != %d", v.n, o.n))
	}
	copy(v.w, o.w)
}

// Clone returns a deep copy.
func (v *Vec) Clone() *Vec {
	c := NewVec(v.n)
	copy(c.w, v.w)
	return c
}

// AppendIDs appends the set identities to dst in ascending order and
// returns the extended slice: the sorted request-line listing that
// observers record. O(words + set bits).
func (v *Vec) AppendIDs(dst []int) []int {
	for wi, w := range v.w {
		for w != 0 {
			dst = append(dst, wi*wordBits+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// Words exposes the backing words (bit i of word i/64 is identity i).
// Callers must not change the length.
func (v *Vec) Words() []uint64 { return v.w }

// Max returns the highest set identity — the fixed-priority contention
// winner — or -1 if the bitmap is empty. O(words).
func (v *Vec) Max() int { return v.MaxBelow(v.n + 1) }

// MaxBelow returns the highest set identity strictly below limit, or -1
// if there is none. This is the thermometer-mask segment split of the
// round-robin kernel: with limit = lastWinner it resolves the
// high-priority segment (identities the RR scan visits first, §3.1)
// without materializing the mask. limit may exceed n. O(words).
func (v *Vec) MaxBelow(limit int) int {
	if limit > v.n+1 {
		limit = v.n + 1
	}
	if limit <= 1 {
		return -1
	}
	top := limit - 1 // highest admissible identity
	wi := top / wordBits
	// Thermometer mask for the top word: bits 0..top%64.
	w := v.w[wi] & (^uint64(0) >> uint(wordBits-1-top%wordBits))
	for {
		if w != 0 {
			return wi*wordBits + bits.Len64(w) - 1
		}
		wi--
		if wi < 0 {
			return -1
		}
		w = v.w[wi]
	}
}

// Planes stores one arbitration number per identity as bit-planes:
// plane b holds, for every identity, bit b of its number. A contention
// pass over a request bitmap is then a tournament from the most
// significant plane down — the direct word-parallel analogue of the
// wired-OR lines settling to the maximum competing number (§2.1).
type Planes struct {
	n     int
	width int
	plane [][]uint64
	cand  []uint64 // tournament scratch
}

// NewPlanes returns a zeroed plane set for identities 1..n and numbers
// of the given bit width (1..64).
//
//arblint:alloc constructor: one plane set per arbiter, at setup
func NewPlanes(width, n int) *Planes {
	if width < 1 || width > 64 {
		panic(fmt.Sprintf("bitarb: plane width %d out of range 1..64", width))
	}
	if n < 1 {
		panic(fmt.Sprintf("bitarb: Planes need at least 1 identity, got %d", n))
	}
	p := &Planes{n: n, width: width, cand: make([]uint64, wordsFor(n))}
	p.plane = make([][]uint64, width)
	for b := range p.plane {
		p.plane[b] = make([]uint64, wordsFor(n))
	}
	return p
}

// Width returns the number bit width.
func (p *Planes) Width() int { return p.width }

// Store writes identity i's arbitration number into the planes,
// replacing any previous value. The number must fit the plane width.
func (p *Planes) Store(i int, number uint64) {
	if i < 1 || i > p.n {
		panic(fmt.Sprintf("bitarb: identity %d out of range 1..%d", i, p.n))
	}
	if number>>uint(p.width) != 0 { // width == 64 shifts to 0: nothing exceeds
		panic(fmt.Sprintf("bitarb: number %b exceeds %d planes", number, p.width))
	}
	wi, bit := i/wordBits, uint64(1)<<uint(i%wordBits)
	for b := 0; b < p.width; b++ {
		if number&(1<<uint(b)) != 0 {
			p.plane[b][wi] |= bit
		} else {
			p.plane[b][wi] &^= bit
		}
	}
}

// Load returns identity i's stored number.
func (p *Planes) Load(i int) uint64 {
	wi, bit := i/wordBits, uint64(1)<<uint(i%wordBits)
	var v uint64
	for b := 0; b < p.width; b++ {
		if p.plane[b][wi]&bit != 0 {
			v |= 1 << uint(b)
		}
	}
	return v
}

// Resolve runs one contention pass among the identities in req: the
// winner is the identity applying the maximum stored number, ties
// broken toward the higher identity (impossible on a real bus, where
// numbers embed distinct static identities). It returns the winner and
// the winning number, or (-1, 0) if req is empty — the idle bus, whose
// winning identity of zero means no agent participated (§3.1).
//
// Cost is O(width · words): per plane, one masked AND-reduction over
// the candidate words — the branch-free segment arithmetic of the
// parallel RR arbiter generalized to multi-bit numbers.
func (p *Planes) Resolve(req *Vec) (winner int, number uint64) {
	if req.n != p.n {
		panic(fmt.Sprintf("bitarb: Resolve size mismatch: %d != %d", req.n, p.n))
	}
	cand := p.cand
	copy(cand, req.w)
	var win uint64
	for b := p.width - 1; b >= 0; b-- {
		// Candidates applying 1 on this plane knock out the rest —
		// exactly an arbitration line reading 1 (§2.1).
		row := p.plane[b]
		var any uint64
		for wi, c := range cand {
			any |= c & row[wi]
		}
		if any != 0 {
			win |= 1 << uint(b)
			for wi := range cand {
				cand[wi] &= row[wi]
			}
		}
	}
	top := -1
	for wi := len(cand) - 1; wi >= 0; wi-- {
		if cand[wi] != 0 {
			top = wi*wordBits + bits.Len64(cand[wi]) - 1
			break
		}
	}
	if top < 0 {
		return -1, 0
	}
	return top, win
}

// Counters holds one saturating counter per identity as bit-planes:
// the FCFS waiting-time counters of §3.2, maintained word-parallel.
type Counters struct {
	n     int
	cbits int
	plane [][]uint64
	cand  []uint64 // tournament scratch
	carry []uint64 // increment scratch
}

// NewCounters returns zeroed counters of the given bit width (1..63)
// for identities 1..n.
//
//arblint:alloc constructor: one counter bank per arbiter, at setup
func NewCounters(cbits, n int) *Counters {
	if cbits < 1 || cbits > 63 {
		panic(fmt.Sprintf("bitarb: counter width %d out of range 1..63", cbits))
	}
	if n < 1 {
		panic(fmt.Sprintf("bitarb: Counters need at least 1 identity, got %d", n))
	}
	c := &Counters{
		n:     n,
		cbits: cbits,
		cand:  make([]uint64, wordsFor(n)),
		carry: make([]uint64, wordsFor(n)),
	}
	c.plane = make([][]uint64, cbits)
	for b := range c.plane {
		c.plane[b] = make([]uint64, wordsFor(n))
	}
	return c
}

// Bits returns the counter width.
func (c *Counters) Bits() int { return c.cbits }

// Max returns the largest representable count, 2^bits-1, at which the
// counters saturate (§3.2's bounded counter; a wrap would invert the
// service order).
func (c *Counters) Max() int { return 1<<uint(c.cbits) - 1 }

// Get returns identity i's counter value.
func (c *Counters) Get(i int) int {
	if i < 1 || i > c.n {
		panic(fmt.Sprintf("bitarb: identity %d out of range 1..%d", i, c.n))
	}
	wi, bit := i/wordBits, uint64(1)<<uint(i%wordBits)
	v := 0
	for b := 0; b < c.cbits; b++ {
		if c.plane[b][wi]&bit != 0 {
			v |= 1 << uint(b)
		}
	}
	return v
}

// Zero clears identity i's counter (a new request, or a win).
func (c *Counters) Zero(i int) {
	if i < 1 || i > c.n {
		panic(fmt.Sprintf("bitarb: identity %d out of range 1..%d", i, c.n))
	}
	wi, bit := i/wordBits, uint64(1)<<uint(i%wordBits)
	for b := 0; b < c.cbits; b++ {
		c.plane[b][wi] &^= bit
	}
}

// Reset clears every counter.
func (c *Counters) Reset() {
	for b := range c.plane {
		row := c.plane[b]
		for i := range row {
			row[i] = 0
		}
	}
}

// Inc increments the counter of every identity in mask, saturating at
// Max: the word-parallel form of "each waiting agent increments its
// counter" (§3.2), one ripple-carry add over the bit-planes. Cost is
// O(bits · words) regardless of how many agents increment.
func (c *Counters) Inc(mask *Vec) { c.incWords(mask.w) }

// IncExceptZero increments every identity in mask whose counter is
// currently nonzero (FCFS2's same-pulse rule: an agent that arrived in
// the sensing window does not count the coincident pulse, §3.2).
func (c *Counters) IncExceptZero(mask *Vec) {
	carry := c.carry
	// zero-counter identities: no plane carries their bit.
	for wi := range carry {
		var nz uint64
		for b := range c.plane {
			nz |= c.plane[b][wi]
		}
		carry[wi] = mask.w[wi] & nz
	}
	c.rippleAdd(carry)
}

func (c *Counters) incWords(mask []uint64) {
	carry := c.carry
	copy(carry, mask)
	c.rippleAdd(carry)
}

// rippleAdd adds 1 to every counter whose bit is set in carry,
// saturating at Max. carry is clobbered.
func (c *Counters) rippleAdd(carry []uint64) {
	// Saturated counters (all planes set) are excluded up front, so the
	// add cannot wrap them to zero.
	for wi, cw := range carry {
		if cw == 0 {
			continue
		}
		sat := ^uint64(0)
		for b := range c.plane {
			sat &= c.plane[b][wi]
		}
		carry[wi] = cw &^ sat
	}
	for b := 0; b < c.cbits; b++ {
		row := c.plane[b]
		done := true
		for wi, cw := range carry {
			if cw == 0 {
				continue
			}
			old := row[wi]
			row[wi] = old ^ cw
			carry[wi] = old & cw
			if carry[wi] != 0 {
				done = false
			}
		}
		if done {
			break
		}
	}
}

// MaxIn returns the identity in req whose (counter, identity) pair is
// largest — the FCFS contention pass, where the counter field sits
// above the static identity in the arbitration number (§3.2) — or -1
// if req is empty. Cost is O(bits · words).
func (c *Counters) MaxIn(req *Vec) int {
	if req.n != c.n {
		panic(fmt.Sprintf("bitarb: MaxIn size mismatch: %d != %d", req.n, c.n))
	}
	cand := c.cand
	copy(cand, req.w)
	for b := c.cbits - 1; b >= 0; b-- {
		row := c.plane[b]
		var any uint64
		for wi, cw := range cand {
			any |= cw & row[wi]
		}
		if any != 0 {
			for wi := range cand {
				cand[wi] &= row[wi]
			}
		}
	}
	for wi := len(cand) - 1; wi >= 0; wi-- {
		if cand[wi] != 0 {
			return wi*wordBits + bits.Len64(cand[wi]) - 1
		}
	}
	return -1
}

// Clone returns a deep copy (verification hook, mirroring the core
// protocols' Clone support).
func (c *Counters) Clone() *Counters {
	d := NewCounters(c.cbits, c.n)
	for b := range c.plane {
		copy(d.plane[b], c.plane[b])
	}
	return d
}
