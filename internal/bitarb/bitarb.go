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
// high-speed parallel RR arbiters. Two layers are provided:
//
//   - Vec: a bitmap over agent identities with word-wise maximum-finding
//     (Max, MaxBelow, MaxAnd, MaxAndNot). MaxBelow(limit) is the
//     thermometer-mask segment split: the highest set bit strictly
//     below limit, i.e. the winner of the high-priority segment of a
//     round-robin scan. MaxAnd and MaxAndNot are the masked priority
//     encoder of the assured access protocols: the highest request in
//     (or outside) the batch or inhibit set. And cuts the request
//     lines down to one class, the urgent lines of the priority
//     variants.
//   - Arrivals: the waiting-time counters of both FCFS variants (§3.2),
//     derived from arrival order instead of stored, and of every
//     protocol core builds on them: the priority variants of FCFS1 and
//     FCFS2, the §5 hybrid and the ticket scheme (see Arrivals). FCFS2
//     and tickets pulse (Pulse); FCFS1 counts each arbitration against
//     the request lines (Follow, Tick, Zero). A pulse costs O(1)
//     amortized, a lose step O(words) plus O(1) per newcomer, and the
//     winner comes off the oldest arrivals in O(words + run).
//     Observably it is a bank of counters plus a waiting set, so the
//     counters (Get) and the waiting set (Waits) are all of its state
//     that decides a winner: that is how core encodes these protocols
//     for the exhaustive verifier, which replays histories instead of
//     copying state.
//
// Identities are 1..n (identity 0 is reserved to mean "no competitor",
// §2.1); bit i of the word row carries agent i, so bit 0 is never set.
// All operations are allocation-free after construction. The general
// form of one contention pass, arbitration numbers stored as bit-planes
// and resolved MSB-first, serves no protocol: it lives in contention's
// tests, held to the boolean wired-OR settle.
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

// And makes v the intersection of a and b, all three sized alike: the
// request lines of one class, as an urgent-line bitmap masks them.
// O(words).
func (v *Vec) And(a, b *Vec) {
	if a.n != v.n || b.n != v.n {
		panic(fmt.Sprintf("bitarb: And size mismatch: %d, %d != %d", a.n, b.n, v.n))
	}
	aw, bw := a.w[:len(v.w)], b.w[:len(v.w)]
	for i := range v.w {
		v.w[i] = aw[i] & bw[i]
	}
}

// MaxAnd returns the highest identity set in both v and m, or -1 if
// there is none: one masked priority encoder over the words. O(words).
func (v *Vec) MaxAnd(m *Vec) int { return v.maxMasked(m, 0) }

// MaxAndNot returns the highest identity set in v and clear in m, or -1
// if there is none. O(words).
func (v *Vec) MaxAndNot(m *Vec) int { return v.maxMasked(m, ^uint64(0)) }

// maxMasked is the highest identity set in v and in m's words XOR flip.
// v never holds bit 0 or bits above n, so flipping m cannot add them.
func (v *Vec) maxMasked(m *Vec, flip uint64) int {
	if v.n != m.n {
		panic(fmt.Sprintf("bitarb: mask size mismatch: %d != %d", v.n, m.n))
	}
	for wi := len(v.w) - 1; wi >= 0; wi-- {
		if w := v.w[wi] & (m.w[wi] ^ flip); w != 0 {
			return wi*wordBits + bits.Len64(w) - 1
		}
	}
	return -1
}
