package sim

import (
	"math"
	"testing"

	"busarb/internal/rng"
)

// driveSolo runs one random schedule on a scheduler with the kinds in
// mask declared solo and on one with none, and fails t at the first
// Next where the two disagree on kind, argument, clock or pending
// count. choose(k) returns a draw in [0, k). Times are coarse integers,
// so ties between slot and heap events are common; every popped event
// schedules zero to two more; half the Next calls are bounded just
// past the clock, so a slot or the heap root can lie beyond the bound.
// Kinds maxSolo and maxSolo+1 are never solo.
func driveSolo(t *testing.T, mask uint8, steps int, choose func(int) int) {
	t.Helper()
	var solo, heap Scheduler
	for k := Kind(0); k < maxSolo; k++ {
		if mask>>k&1 != 0 {
			solo.Solo(k)
		}
	}
	var armed uint8 // the solo kinds pending
	arg := 0
	schedule := func() {
		k := Kind(choose(maxSolo + 2))
		if k < maxSolo && mask>>k&1 != 0 {
			if armed>>k&1 != 0 {
				return
			}
			armed |= 1 << k
		}
		at := solo.Now() + float64(choose(6))
		solo.At(at, k, arg)
		heap.At(at, k, arg)
		arg++
	}
	for i := 0; i < 16; i++ {
		schedule()
	}
	for step := 0; step < steps || heap.Pending() > 0; step++ {
		until := math.Inf(1)
		if step < steps && choose(2) == 0 {
			until = solo.Now() + float64(choose(3))
		}
		k1, a1, ok1 := solo.Next(until)
		k2, a2, ok2 := heap.Next(until)
		if k1 != k2 || a1 != a2 || ok1 != ok2 || solo.Now() != heap.Now() || solo.Pending() != heap.Pending() {
			t.Fatalf("mask %08b step %d: solo Next = (%d, %d, %v) at %v with %d pending, heap-only = (%d, %d, %v) at %v with %d pending",
				mask, step, k1, a1, ok1, solo.Now(), solo.Pending(), k2, a2, ok2, heap.Now(), heap.Pending())
		}
		if !ok1 {
			continue
		}
		if k1 < maxSolo {
			armed &^= 1 << k1
		}
		if step < steps {
			for n := choose(3); n > 0; n-- {
				schedule()
			}
		}
	}
}

// TestSoloMatchesHeap pins that declaring kinds solo changes nothing a
// simulator can see: the same schedule pops in the same order, at the
// same times, with the same pending counts, for every solo mask.
func TestSoloMatchesHeap(t *testing.T) {
	for seed := uint64(0); seed < 1000; seed++ {
		src := rng.New(seed)
		driveSolo(t, uint8(src.Intn(256)), 200, src.Intn)
	}
	src := rng.New(1988)
	driveSolo(t, 0xff, 200, src.Intn)
}

func FuzzSoloMatchesHeap(f *testing.F) {
	f.Add(uint8(0x06), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(0xff), []byte{9, 0, 19, 3, 0, 17, 4, 0, 1, 2})
	f.Add(uint8(0x81), []byte{255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, mask uint8, raw []byte) {
		if len(raw) == 0 {
			return
		}
		i := 0
		choose := func(k int) int {
			b := raw[i%len(raw)]
			i++
			return int(b) % k
		}
		steps := 2 * len(raw)
		if steps > 400 {
			steps = 400
		}
		driveSolo(t, mask, steps, choose)
	})
}

// TestSoloChecks pins the declaration's checks: a second pending event
// of a solo kind panics, as do a solo kind outside the slots and a
// declaration with events pending; popping the first frees the slot.
func TestSoloChecks(t *testing.T) {
	var s Scheduler
	s.Solo(3)
	s.At(1, 3, 0)
	wantPanic(t, "second pending event of solo kind 3", func() { s.At(2, 3, 1) })
	wantPanic(t, "second pending event of solo kind 3", func() { s.After(0, 3, 1) })
	if kind, arg, ok := s.Next(forever); !ok || kind != 3 || arg != 0 || s.Now() != 1 {
		t.Fatalf("Next = (%d, %d, %v) at %v, want the first solo event (3, 0) at 1", kind, arg, ok, s.Now())
	}
	s.At(2, 3, 1) // the slot is free again
	wantPanic(t, "solo kind declared with events pending", func() { s.Solo(4) })
	wantPanic(t, "solo kind 8 beyond the 8 slots", func() { new(Scheduler).Solo(maxSolo) })
	wantPanic(t, "solo kind 255 beyond the 8 slots", func() { new(Scheduler).Solo(255) })
}
