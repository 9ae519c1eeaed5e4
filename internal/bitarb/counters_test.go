package bitarb

import (
	"fmt"
	"math/bits"
	"testing"

	"busarb/internal/rng"
)

// Counters holds one saturating counter per identity as bit-planes,
// the way hardware keeps §3.2's waiting-time counters: "every loser
// increments" is one word-parallel ripple-carry add over the request
// lines, and the winner a (counter, identity) plane tournament. It is
// the reference the FCFS1 drive of Arrivals is checked against
// (driveFCFS1), beside the plain-int model.
type Counters struct {
	n     int
	cbits int
	plane [][]uint64
	cand  []uint64 // tournament scratch
	carry []uint64 // increment scratch
}

// NewCounters returns zeroed counters of the given bit width (1..63)
// for identities 1..n.
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
func (c *Counters) Inc(mask *Vec) {
	copy(c.carry, mask.w)
	c.rippleAdd(c.carry)
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

// Clone returns a deep copy.
func (c *Counters) Clone() *Counters {
	d := NewCounters(c.cbits, c.n)
	for b := range c.plane {
		copy(d.plane[b], c.plane[b])
	}
	return d
}

// TestCountersIncAndGet cross-checks the word-parallel ripple increment
// against a plain int-slice model, including saturation.
func TestCountersIncAndGet(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		for _, cb := range []int{1, 3, 6} {
			c := NewCounters(cb, n)
			ref := make([]int, n+1)
			mask := NewVec(n)
			src := rng.New(uint64(n*10 + cb))
			for step := 0; step < 120; step++ {
				mask.Reset()
				for i := 1; i <= n; i++ {
					if src.Intn(2) == 0 {
						mask.Set(i)
						if ref[i] < c.Max() {
							ref[i]++
						}
					}
				}
				c.Inc(mask)
				if src.Intn(4) == 0 {
					i := 1 + src.Intn(n)
					c.Zero(i)
					ref[i] = 0
				}
				for i := 1; i <= n; i++ {
					if got := c.Get(i); got != ref[i] {
						t.Fatalf("n=%d cb=%d step=%d: Get(%d) = %d, want %d", n, cb, step, i, got, ref[i])
					}
				}
			}
		}
	}
}

// TestCountersMaxIn cross-checks the (counter, identity) tournament
// against a naive scan.
func TestCountersMaxIn(t *testing.T) {
	for _, n := range []int{1, 64, 65, 150} {
		c := NewCounters(4, n)
		req := NewVec(n)
		ref := make([]int, n+1)
		src := rng.New(uint64(n) + 5)
		if c.MaxIn(req) != -1 {
			t.Fatalf("n=%d: MaxIn on empty req != -1", n)
		}
		mask := NewVec(n)
		for step := 0; step < 100; step++ {
			mask.Reset()
			for i := 1; i <= n; i++ {
				if src.Intn(3) == 0 {
					mask.Set(i)
					if ref[i] < c.Max() {
						ref[i]++
					}
				}
			}
			c.Inc(mask)
			req.Reset()
			want := -1
			for i := 1; i <= n; i++ {
				if src.Intn(2) == 0 {
					req.Set(i)
					if want < 0 || ref[i] > ref[want] || (ref[i] == ref[want] && i > want) {
						want = i
					}
				}
			}
			if got := c.MaxIn(req); got != want {
				t.Fatalf("n=%d step=%d: MaxIn = %d, want %d", n, step, got, want)
			}
		}
	}
}

func TestCountersClone(t *testing.T) {
	c := NewCounters(3, 66)
	m := NewVec(66)
	m.Set(65)
	m.Set(2)
	c.Inc(m)
	d := c.Clone()
	c.Inc(m)
	if d.Get(65) != 1 || d.Get(2) != 1 {
		t.Error("Clone shares planes with original")
	}
	c.Reset()
	if c.Get(65) != 0 || d.Get(65) != 1 {
		t.Error("Reset leaked into clone")
	}
}

func TestCountersPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("width 0", func() { NewCounters(0, 4) })
	mustPanic("width 64", func() { NewCounters(64, 4) })
	c := NewCounters(2, 4)
	mustPanic("Get(0)", func() { c.Get(0) })
	mustPanic("Zero(5)", func() { c.Zero(5) })
	mustPanic("MaxIn mismatch", func() { c.MaxIn(NewVec(5)) })
}
