package contention

import (
	"encoding/binary"
	"testing"

	"busarb/internal/bitarb"
)

// FuzzSettleFindsMax throws arbitrary competitor sets at the wired-OR
// settle model: it must always converge to the maximum without panicking
// (numbers are masked into range; zero/duplicate numbers are dropped the
// way unique hardware identities guarantee).
func FuzzSettleFindsMax(f *testing.F) {
	f.Add(uint8(7), []byte{1, 5, 9})
	f.Add(uint8(3), []byte{7, 6, 5, 4, 3, 2, 1})
	f.Add(uint8(1), []byte{1})
	f.Add(uint8(12), []byte{255, 128, 64, 32})
	f.Fuzz(func(t *testing.T, w uint8, raw []byte) {
		width := 1 + int(w%16)
		arb := New(width, 32)
		mask := uint64(1)<<uint(width) - 1
		seen := map[uint64]bool{}
		var comps []Competitor
		for _, b := range raw {
			id := uint64(b) & mask
			if id == 0 || seen[id] || len(comps) >= 32 {
				continue
			}
			seen[id] = true
			comps = append(comps, Competitor{Agent: len(comps), Number: id})
		}
		if len(comps) == 0 {
			return
		}
		var want uint64
		for _, c := range comps {
			if c.Number > want {
				want = c.Number
			}
		}
		res := arb.Run(comps)
		if res.WinningNumber != want {
			t.Fatalf("settled to %b, want %b", res.WinningNumber, want)
		}
		if comps[res.Winner].Number != want {
			t.Fatal("winner index mismatch")
		}
	})
}

// FuzzKernelMatchesSettle cross-checks the three implementations of the
// contention pass on arbitrary competitor sets at full 64-bit widths
// (including the word boundaries 63 and 64): the word-wide Run, the
// boolean wired-OR settle oracle, and the bitarb bit-plane tournament
// must all agree on winner, winning number, and (for the two settle
// models) round count.
func FuzzKernelMatchesSettle(f *testing.F) {
	f.Add(uint8(64), []byte{1, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Add(uint8(63), []byte{9, 3, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(1), []byte{1})
	f.Add(uint8(12), []byte{255, 128, 64, 32, 7, 7, 7, 7, 0, 0})
	f.Fuzz(func(t *testing.T, w uint8, raw []byte) {
		width := 1 + int(w%64)
		const maxComps = 24
		arb := New(width, maxComps)
		planes := NewPlanes(width, maxComps)
		req := bitarb.NewVec(maxComps)
		mask := ^uint64(0) >> uint(64-width)
		seen := map[uint64]bool{}
		var comps []Competitor
		for len(raw) >= 8 && len(comps) < maxComps {
			id := binary.LittleEndian.Uint64(raw) & mask
			raw = raw[8:]
			if id == 0 || seen[id] {
				continue
			}
			seen[id] = true
			comps = append(comps, Competitor{Agent: len(comps), Number: id})
		}
		fast := arb.Run(comps)
		oracle := arb.RunSettle(comps)
		if fast != oracle {
			t.Fatalf("width %d: Run = %+v, RunSettle oracle = %+v (comps %v)", width, fast, oracle, comps)
		}
		req.Reset()
		for i, c := range comps {
			planes.Store(i+1, c.Number) // kernel identities are 1-based
			req.Set(i + 1)
		}
		slot, num := planes.Resolve(req)
		wantSlot := -1 // Resolve signals "no competitor" as -1, like Winner
		if fast.Winner >= 0 {
			wantSlot = fast.Winner + 1 // kernel identities are 1-based
		}
		if slot != wantSlot || num != fast.WinningNumber {
			t.Fatalf("width %d: planes tournament = (%d, %b), settle = (%d, %b)",
				width, slot, num, wantSlot, fast.WinningNumber)
		}
	})
}
