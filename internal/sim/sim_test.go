package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"busarb/internal/rng"
)

var forever = math.Inf(1)

// drain pops every pending event, returning the arguments in firing
// order.
func drain(s *Scheduler) []int {
	var args []int
	for {
		_, arg, ok := s.Next(forever)
		if !ok {
			return args
		}
		args = append(args, arg)
	}
}

func TestEventOrdering(t *testing.T) {
	var s Scheduler
	s.At(3, 0, 3)
	s.At(1, 0, 1)
	s.At(2, 0, 2)
	order := drain(&s)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 3 {
		t.Errorf("Now = %v", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	var s Scheduler
	for i := 0; i < 10; i++ {
		s.At(5, 0, i)
	}
	for i, v := range drain(&s) {
		if v != i {
			t.Fatalf("tie-break not FIFO at %d: got %d", i, v)
		}
	}
}

// TestAfter schedules relative to the clock of the event being handled,
// and returns each event's kind and argument as scheduled.
func TestAfter(t *testing.T) {
	var s Scheduler
	s.At(2, 7, -4)
	kind, arg, ok := s.Next(forever)
	if !ok || kind != 7 || arg != -4 {
		t.Fatalf("Next = (%d, %d, %v), want (7, -4, true)", kind, arg, ok)
	}
	s.After(0.5, 9, 1<<30)
	if kind, arg, _ = s.Next(forever); kind != 9 || arg != 1<<30 || s.Now() != 2.5 {
		t.Errorf("After fired (%d, %d) at %v, want (9, %d) at 2.5", kind, arg, s.Now(), 1<<30)
	}
}

// wantPanic fails t unless f panics with a message containing want.
func wantPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg, _ := recover().(string)
		if !strings.Contains(msg, want) {
			t.Errorf("panic %q, want one containing %q", msg, want)
		}
	}()
	f()
}

func TestSchedulingInPastPanics(t *testing.T) {
	var s Scheduler
	s.At(5, 0, 0)
	s.Next(forever)
	wantPanic(t, "scheduling at 1 before now 5", func() { s.At(1, 0, 0) })
	wantPanic(t, "scheduling at NaN", func() { s.At(math.NaN(), 0, 0) })
	wantPanic(t, "overflows int32", func() { s.At(6, 0, math.MaxInt32+1) })
}

// TestRunUntil pins Next's bound: only events due at or before it fire.
func TestRunUntil(t *testing.T) {
	var s Scheduler
	for i := 1; i <= 10; i++ {
		s.At(float64(i), 0, i)
	}
	count := 0
	for _, _, ok := s.Next(5); ok; _, _, ok = s.Next(5) {
		count++
	}
	if count != 5 || s.Now() != 5 || s.Pending() != 5 {
		t.Errorf("Next(5) fired %d events, Now=%v Pending=%d; want 5, 5, 5", count, s.Now(), s.Pending())
	}
	if rest := drain(&s); len(rest) != 5 || s.Now() != 10 {
		t.Errorf("drain fired %v, Now=%v", rest, s.Now())
	}
}

// TestRunWithStop pins that the caller's loop owns stopping: events not
// popped stay pending.
func TestRunWithStop(t *testing.T) {
	var s Scheduler
	for i := 1; i <= 10; i++ {
		s.At(float64(i), 0, i)
	}
	for count := 0; count < 3; count++ {
		s.Next(forever)
	}
	if s.Pending() != 7 {
		t.Errorf("Pending = %d, want 7", s.Pending())
	}
}

// TestReset also pins that Reset disarms the solo slots and keeps the
// declarations.
func TestReset(t *testing.T) {
	var s Scheduler
	s.Solo(1)
	s.At(1, 0, 0)
	s.Next(forever)
	s.At(9, 0, 0)
	s.At(4, 1, 7)
	s.Reset()
	if s.Now() != 0 || s.Pending() != 0 {
		t.Error("Reset incomplete")
	}
	s.At(0.5, 0, 42)
	s.At(2, 1, 9)
	wantPanic(t, "second pending event of solo kind 1", func() { s.At(3, 1, 10) })
	if got := drain(&s); len(got) != 2 || got[0] != 42 || got[1] != 9 {
		t.Errorf("scheduler unusable after Reset: fired %v", got)
	}
}

// Property: events always fire in non-decreasing time order regardless
// of insertion order, including events scheduled while handling events,
// and simultaneous events fire in schedule order.
func TestMonotoneClockProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		var s Scheduler
		// An event's argument is its schedule order; its kind is its
		// nesting depth.
		next := 0
		for i := 0; i < 30; i++ {
			// Coarse times make ties common.
			s.At(float64(src.Intn(40)), 0, next)
			next++
		}
		lastT, lastArg := -1.0, -1
		for {
			kind, arg, ok := s.Next(forever)
			if !ok {
				return true
			}
			if s.Now() < lastT || (s.Now() == lastT && arg < lastArg) {
				return false
			}
			lastT, lastArg = s.Now(), arg
			if kind < 3 && src.Intn(2) == 0 {
				s.After(float64(src.Intn(5)), kind+1, next)
				next++
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduler(b *testing.B) {
	var s Scheduler
	for i := 0; i < b.N; i++ {
		s.After(1, 0, 0)
		s.Next(forever)
	}
}

// BenchmarkSchedulerBus drives the event mix of a bussim run at n
// agents: n think times in the heap and, per grant, one transaction end
// and one arbitration resolve in solo slots, the resolve overlapping
// the transaction in flight. An op is one grant. Think times are
// exponential with mean n transaction times, so the bus runs near
// saturation with a queue of waiters, as at the paper's high loads.
func BenchmarkSchedulerBus(b *testing.B) {
	const (
		evThink Kind = iota
		evComplete
		evResolve
	)
	for _, n := range []int{30, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var s Scheduler
			s.Solo(evComplete, evResolve)
			src := rng.New(uint64(n))
			mean := float64(n)
			// waiting is a FIFO ring of the agents whose think time
			// ended; an agent is in it at most once.
			waiting := make([]int, n)
			head, queued := 0, 0
			busy, arbitrating, pendingWin := false, false, -1
			arbitrate := func() {
				if queued > 0 && !arbitrating {
					arbitrating = true
					s.After(0.5, evResolve, 0)
				}
			}
			start := func(a int) {
				busy = true
				s.After(1, evComplete, a)
				arbitrate()
			}
			for a := 0; a < n; a++ {
				s.After(mean*src.ExpFloat64(), evThink, a)
			}
			b.ResetTimer()
			for grants := 0; grants < b.N; {
				kind, a, _ := s.Next(forever)
				switch kind {
				case evThink:
					waiting[(head+queued)%n] = a
					queued++
					if pendingWin < 0 {
						arbitrate()
					}
				case evResolve:
					arbitrating = false
					w := waiting[head]
					head, queued = (head+1)%n, queued-1
					if busy {
						pendingWin = w
					} else {
						start(w)
					}
				case evComplete:
					grants++
					busy = false
					s.After(mean*src.ExpFloat64(), evThink, a)
					if w := pendingWin; w >= 0 {
						pendingWin = -1
						start(w)
					} else {
						arbitrate()
					}
				}
			}
		})
	}
}
