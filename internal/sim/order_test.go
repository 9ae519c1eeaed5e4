package sim

import (
	"math"
	"testing"

	"busarb/internal/rng"
)

// modelEvent is one pending event of the reference queue in driveOrder.
type modelEvent struct {
	time float64
	seq  int
	kind Kind
	arg  int
}

// driveOrder runs one random schedule on a Scheduler and on a model, a
// plain list popped by a linear scan for the least (time, seq) under
// float comparison, and fails t at the first Next where the two disagree
// on kind, argument, clock or pending count. choose(k) returns a draw in
// [0, k). Times are coarse integers, so ties are common; while the clock
// is at zero some events are scheduled at −0, which must pop as +0, and
// some events are scheduled at +Inf. Every popped event schedules zero
// to two more, and half the Next calls are bounded just past the clock.
// Kind 1 is solo, so the slot and the heap are ordered together.
func driveOrder(t *testing.T, steps int, choose func(int) int) {
	t.Helper()
	driveOrderFrom(t, 16, steps, choose)
}

// driveOrderFrom is driveOrder starting from the given number of
// scheduled events instead of 16.
func driveOrderFrom(t *testing.T, pending, steps int, choose func(int) int) {
	t.Helper()
	var s Scheduler
	s.Solo(1)
	var model []modelEvent
	seq, arg := 0, 0
	schedule := func() {
		k := Kind(choose(3))
		if k == 1 {
			for _, e := range model {
				if e.kind == 1 {
					return
				}
			}
		}
		var at float64
		switch c := choose(8); {
		case c == 0:
			at = math.Inf(1)
		case c == 1 && s.Now() == 0:
			at = math.Copysign(0, -1)
		default:
			at = s.Now() + float64(c%4)
		}
		s.At(at, k, arg)
		model = append(model, modelEvent{time: at, seq: seq, kind: k, arg: arg})
		seq++
		arg++
	}
	for i := 0; i < pending; i++ {
		schedule()
	}
	now := 0.0
	for step := 0; step < steps || len(model) > 0; step++ {
		until := math.Inf(1)
		if step < steps && choose(2) == 0 {
			until = s.Now() + float64(choose(3))
		}
		first := -1
		for i, e := range model {
			if first < 0 || e.time < model[first].time || e.time == model[first].time && e.seq < model[first].seq {
				first = i
			}
		}
		var want modelEvent
		wantOK := first >= 0 && model[first].time <= until
		if wantOK {
			want = model[first]
			now = want.time
			model = append(model[:first], model[first+1:]...)
		}
		kind, a, ok := s.Next(until)
		if kind != want.kind || a != want.arg || ok != wantOK || s.Now() != now ||
			math.Signbit(s.Now()) || s.Pending() != len(model) {
			t.Fatalf("step %d: Next = (%d, %d, %v) at %v with %d pending, model = (%d, %d, %v) at %v with %d pending",
				step, kind, a, ok, s.Now(), s.Pending(), want.kind, want.arg, wantOK, now, len(model))
		}
		if ok && step < steps {
			for n := choose(3); n > 0; n-- {
				schedule()
			}
		}
	}
}

// TestOrderMatchesModel pins the queue order itself, which
// TestSoloMatchesHeap cannot: both of its schedulers share the heap.
// Events pop in (time, seq) order with −0 equal to +0, as a sorted list
// pops them.
func TestOrderMatchesModel(t *testing.T) {
	for seed := uint64(0); seed < 1000; seed++ {
		driveOrder(t, 200, rng.New(seed).Intn)
	}
}

// TestOrderMatchesModelDeep runs the same check from 300 pending
// events. Every popped event schedules one more on average, so the heap
// stays about that size and its sifts run four and five levels deep,
// through full groups of children and partial last ones.
func TestOrderMatchesModelDeep(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		driveOrderFrom(t, 300, 400, rng.New(seed).Intn)
	}
}

func FuzzOrderMatchesModel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{1, 9, 0, 17, 1, 3, 0, 4, 1, 2})
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
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
		driveOrder(t, steps, choose)
	})
}
