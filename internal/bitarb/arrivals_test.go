package bitarb

import (
	"math/bits"
	"testing"

	"busarb/internal/rng"
)

// NewArrivals returns zeroed counters of the given bit width (1..63)
// for identities 1..n, with no agent waiting.
func NewArrivals(cbits, n int) *Arrivals {
	a := new(Arrivals)
	InitArrivals(cbits, n, []*Arrivals{a})
	return a
}

// countersModel is the plain-int reference for Arrivals: one counter per
// identity and a waiting flag, driven the way FCFS2 drives a bank of
// saturating counters (increment the waiting set, or only its non-zero
// counters within one window; zero the newcomer; clear on a grant) and
// the way FCFS1 does (zero on request; increment the request lines and
// zero the winner per arbitration).
type countersModel struct {
	max  int
	ctr  []int
	wait []bool
}

func newCountersModel(cbits, n int) *countersModel {
	return &countersModel{max: 1<<uint(cbits) - 1, ctr: make([]int, n+1), wait: make([]bool, n+1)}
}

// tick counts one pulse against every waiting counter, except, when
// sameWindow, those still at 0.
func (m *countersModel) tick(sameWindow bool) {
	for i, w := range m.wait {
		if w && !(sameWindow && m.ctr[i] == 0) && m.ctr[i] < m.max {
			m.ctr[i]++
		}
	}
}

func (m *countersModel) pulse(id int, sameWindow bool) {
	m.tick(sameWindow)
	m.ctr[id] = 0
	m.wait[id] = true
}

// maxIn is the (counter, identity) maximum over req, or -1.
func (m *countersModel) maxIn(req []bool) int { return m.maxInRR(req, 0) }

// maxInRR is the (counter, identity < last, identity) maximum over
// req, or -1.
func (m *countersModel) maxInRR(req []bool, last int) int {
	best := -1
	for i, r := range req {
		if !r {
			continue
		}
		if best < 0 || m.ctr[i] > m.ctr[best] ||
			m.ctr[i] == m.ctr[best] && (i < last || best >= last) {
			best = i
		}
	}
	return best
}

// wrap zeroes every waiting counter that has reached c and takes its
// agent off the waiting set, returning how many.
func (m *countersModel) wrap(c int) int {
	k := 0
	for i, w := range m.wait {
		if w && m.ctr[i] >= c {
			m.ctr[i], m.wait[i] = 0, false
			k++
		}
	}
	return k
}

// lose is FCFS1's step after a contention pass: every agent on the
// request lines counts it, and the winner starts over.
func (m *countersModel) lose(req []bool, winner int) {
	for i, r := range req {
		if r && m.ctr[i] < m.max {
			m.ctr[i]++
		}
	}
	m.ctr[winner] = 0
}

func (m *countersModel) reset() {
	clear(m.ctr)
	clear(m.wait)
}

// fillReq makes req (and its mirror in) one of the request bitmaps the
// drives hand Arrivals, by mode: the waiting set (0, 1), a subset of it
// (2), any subset of identities, so that frozen counters compete (3), a
// single identity (4), or empty (5 and above).
func fillReq(req *Vec, in, wait []bool, mode int, choose func(k int) int) {
	req.Reset()
	clear(in)
	n := req.N()
	for i := 1; i <= n; i++ {
		if mode <= 2 && wait[i] && (mode < 2 || choose(2) == 0) || mode == 3 && choose(2) == 0 {
			req.Set(i)
			in[i] = true
		}
	}
	if mode == 4 {
		i := 1 + choose(n)
		req.Set(i)
		in[i] = true
	}
}

// driveArrivals runs steps operations chosen by choose(k) (a value in
// [0, k)) on an Arrivals and on the model, comparing Get and Waits for
// every identity, MaxIn over a fresh request bitmap and MaxInRR over
// it with a random last winner after each one. The operations are
// FCFS2's pulses (a third of them in the same window, some of them
// repeats by waiting agents) and leaves (mostly the model's oldest
// waiter, as a grant would), mixed with FCFS1's primitives — Zero,
// Tick in or out of the window, and Follow over any request bitmap, so
// that frozen counters rejoin the order wherever the pulses have left
// it — and Wrap at any counter, Freeze at any counter, and Reset. The
// request bitmap is the waiting set, a subset of it, any subset of
// identities (so frozen counters compete), a single identity, or
// empty.
func driveArrivals(t *testing.T, n, cbits, steps int, choose func(k int) int) {
	t.Helper()
	a := NewArrivals(cbits, n)
	m := newCountersModel(cbits, n)
	req := NewVec(n)
	in := make([]bool, n+1)
	var what string
	for step := 0; step < steps; step++ {
		switch op := choose(25); {
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
		case op == 19:
			id := 1 + choose(n)
			a.Zero(id)
			m.ctr[id], m.wait[id] = 0, false
			what = "zero"
		case op == 20:
			same := choose(2) == 0
			a.Tick(same)
			m.tick(same)
			what = "tick"
		case op == 21:
			c := 1 + choose(m.max)
			if got, want := a.Wrap(c), m.wrap(c); got != want {
				t.Fatalf("n=%d bits=%d step %d: Wrap(%d) = %d, want %d", n, cbits, step, c, got, want)
			}
			what = "wrap"
		case op == 22:
			id, c := 1+choose(n), choose(m.max+1)
			a.Freeze(id, c)
			m.ctr[id], m.wait[id] = c, false
			what = "freeze"
		default:
			fillReq(req, in, m.wait, choose(5), choose)
			a.Follow(req)
			copy(m.wait, in)
			what = "follow"
		}
		fillReq(req, in, m.wait, choose(6), choose)
		for i := 1; i <= n; i++ {
			if got := a.Get(i); got != m.ctr[i] {
				t.Fatalf("n=%d bits=%d step %d (%s): Get(%d) = %d, want %d", n, cbits, step, what, i, got, m.ctr[i])
			}
			if got := a.Waits(i); got != m.wait[i] {
				t.Fatalf("n=%d bits=%d step %d (%s): Waits(%d) = %v, want %v", n, cbits, step, what, i, got, m.wait[i])
			}
		}
		if got, want := a.MaxIn(req), m.maxIn(in); got != want {
			t.Fatalf("n=%d bits=%d step %d (%s): MaxIn(%v) = %d, want %d", n, cbits, step, what, req.AppendIDs(nil), got, want)
		}
		last := choose(n + 2)
		if got, want := a.MaxInRR(req, last), m.maxInRR(in, last); got != want {
			t.Fatalf("n=%d bits=%d step %d (%s): MaxInRR(%v, %d) = %d, want %d",
				n, cbits, step, what, req.AppendIDs(nil), last, got, want)
		}
	}
}

// fcfs1Arbitrate is core.FCFS1's contention pass on Arrivals: the
// request lines become the waiting set, the (counter, identity) maximum
// wins, the pass counts against every agent on the lines, and the
// winner starts over.
func fcfs1Arbitrate(a *Arrivals, req *Vec) int {
	a.Follow(req)
	w := a.MaxIn(req)
	a.Tick(false)
	a.Zero(w)
	return w
}

// driveFCFS1 runs steps operations chosen by choose(k) on an Arrivals
// driven the way core.FCFS1 drives it, on a Counters bank driven the
// way FCFS1 drove one (Zero on request; MaxIn, Inc over the request
// lines, Zero the winner per arbitration) and on the plain-int model,
// comparing the winners and Get for every identity after each one. The
// operations are requests (some by agents already requesting),
// arbitrations and Reset. An arbitration's request bitmap is the
// requesting set, as bussim hands it, a subset of it, any subset of
// identities, or a single identity — so counting agents drop off the
// lines and agents come back with frozen counters — and is never
// empty.
func driveFCFS1(t *testing.T, n, cbits, steps int, choose func(k int) int) {
	t.Helper()
	a := NewArrivals(cbits, n)
	c := NewCounters(cbits, n)
	m := newCountersModel(cbits, n)
	req := NewVec(n)
	in := make([]bool, n+1)
	requesting := make([]bool, n+1)
	var what string
	for step := 0; step < steps; step++ {
		switch op := choose(19); {
		case op < 9:
			id := 1 + choose(n)
			a.Zero(id)
			c.Zero(id)
			m.ctr[id] = 0
			requesting[id] = true
			what = "request"
		case op < 18:
			fillReq(req, in, requesting, choose(5), choose)
			if !req.Any() {
				i := 1 + choose(n)
				req.Set(i)
				in[i] = true
			}
			wa := fcfs1Arbitrate(a, req)
			wc := c.MaxIn(req)
			c.Inc(req)
			c.Zero(wc)
			wm := m.maxIn(in)
			m.lose(in, wm)
			if wa != wm || wc != wm {
				t.Fatalf("n=%d bits=%d step %d: arbitration over %v won by %d (Arrivals), %d (Counters), want %d",
					n, cbits, step, req.AppendIDs(nil), wa, wc, wm)
			}
			requesting[wm] = false
			what = "arbitrate"
		default:
			if choose(4) == 0 {
				a.Reset()
				c.Reset()
				m.reset()
				clear(requesting)
				what = "reset"
			}
		}
		for i := 1; i <= n; i++ {
			if got, cg := a.Get(i), c.Get(i); got != m.ctr[i] || cg != m.ctr[i] {
				t.Fatalf("n=%d bits=%d step %d (%s): Get(%d) = %d (Arrivals), %d (Counters), want %d",
					n, cbits, step, what, i, got, cg, m.ctr[i])
			}
		}
	}
}

// TestArrivalsMatchCounters pins Arrivals to the counter semantics of
// both FCFS variants: random operation sequences, driven as FCFS2
// drives it and as FCFS1 does, at every word-boundary shape, with
// counter widths narrow enough to saturate and the full width the
// protocols use (enough for n).
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
			driveFCFS1(t, n, cbits, steps, src.Intn)
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
// read cyclically, choose the operations and request bitmaps of an
// FCFS2 drive and then of an FCFS1 drive.
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
		i = 0
		driveFCFS1(t, n, cbits, steps, choose)
	})
}
