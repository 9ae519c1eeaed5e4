package bitarb

import (
	"math/bits"
	"testing"

	"busarb/internal/rng"
)

// countersModel is the plain-int reference for Arrivals: one counter per
// identity and a waiting flag, driven the way FCFS2 drives a Counters
// bank (Inc or IncExceptZero over the waiting set, Zero, Set; Clear).
type countersModel struct {
	max  int
	ctr  []int
	wait []bool
}

func newCountersModel(cbits, n int) *countersModel {
	return &countersModel{max: 1<<uint(cbits) - 1, ctr: make([]int, n+1), wait: make([]bool, n+1)}
}

func (m *countersModel) pulse(id int, sameWindow bool) {
	for i, w := range m.wait {
		if w && !(sameWindow && m.ctr[i] == 0) && m.ctr[i] < m.max {
			m.ctr[i]++
		}
	}
	m.ctr[id] = 0
	m.wait[id] = true
}

// maxIn is the (counter, identity) maximum over req, or -1.
func (m *countersModel) maxIn(req []bool) int {
	best := -1
	for i, r := range req {
		if r && (best < 0 || m.ctr[i] >= m.ctr[best]) {
			best = i
		}
	}
	return best
}

func (m *countersModel) reset() {
	clear(m.ctr)
	clear(m.wait)
}

func (m *countersModel) clone() *countersModel {
	return &countersModel{max: m.max, ctr: append([]int(nil), m.ctr...), wait: append([]bool(nil), m.wait...)}
}

// driveArrivals runs steps operations chosen by choose(k) (a value in
// [0, k)) on an Arrivals and on the model, comparing Get for every
// identity and MaxIn over a fresh request bitmap after each one. The
// operations are pulses (a third of them in the same window, some of
// them repeats by waiting agents), leaves (mostly the model's oldest
// waiter, as a grant would), Reset, and Clone, after which the run
// continues on the copy while the original is disturbed. The request
// bitmap is the waiting set, a subset of it, any subset of identities
// (so frozen counters compete), a single identity, or empty.
func driveArrivals(t *testing.T, n, cbits, steps int, choose func(k int) int) {
	t.Helper()
	a := NewArrivals(cbits, n)
	m := newCountersModel(cbits, n)
	req := NewVec(n)
	in := make([]bool, n+1)
	var what string
	for step := 0; step < steps; step++ {
		switch op := choose(20); {
		case op < 10:
			id, same := 1+choose(n), choose(3) == 0
			a.Pulse(id, same)
			m.pulse(id, same)
			what = "pulse"
		case op < 18:
			id := 1 + choose(n)
			if op < 16 {
				copy(in, m.wait)
				if w := m.maxIn(in); w > 0 {
					id = w
				}
			}
			a.Leave(id)
			m.wait[id] = false
			what = "leave"
		case op == 18:
			if choose(4) == 0 {
				a.Reset()
				m.reset()
				what = "reset"
			}
		default:
			old := a
			a, m = a.Clone(), m.clone()
			old.Pulse(1+choose(n), false)
			old.Leave(1 + choose(n))
			what = "clone"
		}
		req.Reset()
		clear(in)
		switch mode := choose(5); mode {
		case 0, 1:
			for i := 1; i <= n; i++ {
				if m.wait[i] && (mode == 0 || choose(2) == 0) {
					req.Set(i)
					in[i] = true
				}
			}
		case 2:
			for i := 1; i <= n; i++ {
				if choose(2) == 0 {
					req.Set(i)
					in[i] = true
				}
			}
		case 3:
			i := 1 + choose(n)
			req.Set(i)
			in[i] = true
		}
		for i := 1; i <= n; i++ {
			if got := a.Get(i); got != m.ctr[i] {
				t.Fatalf("n=%d bits=%d step %d (%s): Get(%d) = %d, want %d", n, cbits, step, what, i, got, m.ctr[i])
			}
		}
		if got, want := a.MaxIn(req), m.maxIn(in); got != want {
			t.Fatalf("n=%d bits=%d step %d (%s): MaxIn(%v) = %d, want %d", n, cbits, step, what, req.AppendIDs(nil), got, want)
		}
	}
}

// TestArrivalsMatchCounters pins Arrivals to the Counters semantics
// FCFS2 had: random operation sequences at every word-boundary shape,
// with counter widths narrow enough to saturate and the width FCFS2
// uses (enough for n).
func TestArrivalsMatchCounters(t *testing.T) {
	for _, n := range []int{1, 2, 5, 63, 64, 65, 130, 1024} {
		full := bits.Len(uint(n))
		for _, cbits := range []int{1, 2, 3, full} {
			steps := 3000
			if n == 1024 {
				steps = 800
			}
			src := rng.New(uint64(n*64 + cbits))
			driveArrivals(t, n, cbits, steps, src.Intn)
		}
	}
}

// TestArrivalsSameWindow spells out the same-window rule on one case:
// requests inside one sensing window share counter 0 and are served
// highest identity first, and each later pulse counts against them all.
func TestArrivalsSameWindow(t *testing.T) {
	a := NewArrivals(4, 8)
	a.Pulse(3, false)
	a.Pulse(7, true)
	a.Pulse(5, true)
	a.Pulse(2, false)
	a.Pulse(8, true)
	a.Pulse(6, false)
	want := map[int]int{3: 3, 7: 3, 5: 3, 2: 1, 8: 1, 6: 0}
	for id, c := range want {
		if got := a.Get(id); got != c {
			t.Errorf("Get(%d) = %d, want %d", id, got, c)
		}
	}
	all := NewVec(8)
	for id := range want {
		all.Set(id)
	}
	for _, w := range []int{7, 5, 3, 8, 2, 6} {
		if got := a.MaxIn(all); got != w {
			t.Fatalf("MaxIn = %d, want %d", got, w)
		}
		a.Leave(w)
		all.Clear(w)
	}
	if got := a.MaxIn(all); got != -1 {
		t.Errorf("MaxIn on empty req = %d, want -1", got)
	}
	if got := a.Get(7); got != 3 {
		t.Errorf("Leave did not freeze the counter: Get(7) = %d, want 3", got)
	}
}

func TestArrivalsPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("width 0", func() { NewArrivals(0, 4) })
	mustPanic("width 64", func() { NewArrivals(64, 4) })
	mustPanic("n 0", func() { NewArrivals(3, 0) })
	a := NewArrivals(2, 4)
	mustPanic("Get(0)", func() { a.Get(0) })
	mustPanic("Pulse(5)", func() { a.Pulse(5, false) })
	mustPanic("Leave(0)", func() { a.Leave(0) })
	mustPanic("MaxIn mismatch", func() { a.MaxIn(NewVec(5)) })
}

// FuzzArrivalsMatchCounters is the differential test under fuzzer
// control: the input picks n and the counter width, and its bytes,
// read cyclically, choose the operations and request bitmaps.
func FuzzArrivalsMatchCounters(f *testing.F) {
	f.Add(uint8(5), uint8(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(64), uint8(2), []byte{9, 0, 19, 3, 0, 17, 4, 0, 1, 2})
	f.Add(uint8(129), uint8(7), []byte{255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, nb, wb uint8, raw []byte) {
		if len(raw) == 0 {
			return
		}
		n, cbits := 1+int(nb)%130, 1+int(wb)%9
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
		driveArrivals(t, n, cbits, steps, choose)
	})
}
