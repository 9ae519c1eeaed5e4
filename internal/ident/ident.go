// Package ident models the composite arbitration numbers ("identities")
// used by the parallel contention arbiter and the paper's protocols.
//
// The paper's key construction (§3) is that an agent's arbitration number
// is a concatenation of fields, most-significant first:
//
//	[ priority bit | waiting-time counter | round-robin bit | static ID ]
//
// Fixed priority uses only the static ID. RR1 adds the round-robin bit
// (§3.1, first implementation). FCFS adds the waiting-time counter as the
// most significant part (§3.2). Priority integration (§2.4, §3.1, §3.2)
// adds one more most-significant bit. The maximum-finding arbitration
// then realizes each scheduling policy.
package ident

import (
	"fmt"
	"math/bits"
)

// Width returns k = ceil(log2(N+1)), the number of arbitration lines
// needed for N agents with identities 1..N (identity 0 is reserved to
// mean "no competitor"), as in §2.1.
func Width(n int) int {
	if n < 1 {
		return 0
	}
	return bits.Len(uint(n))
}

// Layout describes which fields a protocol's arbitration numbers carry
// and how wide each is. Encoded numbers compare correctly as plain
// unsigned integers.
type Layout struct {
	StaticBits  int  // width of the static identity field (>= 1)
	RRBit       bool // round-robin priority bit present (RR protocol)
	CounterBits int  // waiting-time counter width (FCFS protocol), 0 if absent
	PriorityBit bool // urgent-request bit present (priority integration)
}

// LayoutFor returns the minimal fixed-priority layout for n agents.
func LayoutFor(n int) Layout { return Layout{StaticBits: Width(n)} }

// TotalBits returns the number of bus arbitration lines the layout
// occupies.
func (l Layout) TotalBits() int {
	total := l.StaticBits + l.CounterBits
	if l.RRBit {
		total++
	}
	if l.PriorityBit {
		total++
	}
	return total
}

// Number is one agent's composite arbitration number, in decoded form.
type Number struct {
	Static   int  // statically assigned identity, 1..2^StaticBits-1
	RR       bool // round-robin priority bit (RR1)
	Counter  int  // waiting-time counter (FCFS)
	Priority bool // urgent-request bit
}

// Validate reports whether n fits in the layout.
func (l Layout) Validate(n Number) error {
	if l.StaticBits < 1 {
		return fmt.Errorf("ident: layout has no static field")
	}
	// Identity 0 is reserved: a winning identity of zero means "no
	// competitor participated" (§2.1, §3.1), so no agent may carry it.
	if n.Static < 1 || n.Static >= 1<<l.StaticBits {
		return fmt.Errorf("ident: static id %d out of range 1..%d (identity 0 is reserved, §2.1)", n.Static, 1<<l.StaticBits-1)
	}
	if n.Counter < 0 || (l.CounterBits == 0 && n.Counter != 0) ||
		(l.CounterBits > 0 && n.Counter >= 1<<l.CounterBits) {
		return fmt.Errorf("ident: counter %d out of range for %d bits", n.Counter, l.CounterBits)
	}
	if n.RR && !l.RRBit {
		return fmt.Errorf("ident: RR bit set but layout has none")
	}
	if n.Priority && !l.PriorityBit {
		return fmt.Errorf("ident: priority bit set but layout has none")
	}
	return nil
}

// Encode packs n into an unsigned integer whose natural ordering is the
// arbitration ordering (priority > counter > RR bit > static ID). It
// panics if n does not fit the layout; protocols construct numbers
// internally, so a failure is a programming error.
func (l Layout) Encode(n Number) uint64 {
	if err := l.Validate(n); err != nil {
		panic(err)
	}
	v := uint64(n.Static)
	shift := uint(l.StaticBits)
	if l.RRBit {
		if n.RR {
			v |= 1 << shift
		}
		shift++
	}
	if l.CounterBits > 0 {
		v |= uint64(n.Counter) << shift
		shift += uint(l.CounterBits)
	}
	if l.PriorityBit {
		if n.Priority {
			v |= 1 << shift
		}
	}
	return v
}

// Decode unpacks an encoded arbitration number.
func (l Layout) Decode(v uint64) Number {
	var n Number
	n.Static = int(v & (1<<l.StaticBits - 1))
	shift := uint(l.StaticBits)
	if l.RRBit {
		n.RR = v&(1<<shift) != 0
		shift++
	}
	if l.CounterBits > 0 {
		n.Counter = int((v >> shift) & (1<<l.CounterBits - 1))
		shift += uint(l.CounterBits)
	}
	if l.PriorityBit {
		n.Priority = v&(1<<shift) != 0
	}
	return n
}

// Bits expands an encoded number into a most-significant-first bit slice
// of the layout's total width, the form applied to the bus arbitration
// lines (line 0 carries the MSB, matching the paper's "line i" notation
// counted from the top).
func (l Layout) Bits(v uint64) []bool {
	w := l.TotalBits()
	out := make([]bool, w)
	for i := 0; i < w; i++ {
		out[i] = v&(1<<uint(w-1-i)) != 0
	}
	return out
}

// FromBits reassembles an encoded number from a most-significant-first
// bit slice.
func (l Layout) FromBits(bs []bool) uint64 {
	var v uint64
	for _, b := range bs {
		v <<= 1
		if b {
			v |= 1
		}
	}
	return v
}
