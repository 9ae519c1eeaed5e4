package bitarb

import (
	"testing"

	"busarb/internal/rng"
)

// boundaryNs exercises every word-boundary shape: single partial word,
// exactly one word, one word plus one bit, and a multi-word tail.
var boundaryNs = []int{1, 2, 63, 64, 65, 127, 128, 129, 200}

func TestVecSetClearTest(t *testing.T) {
	for _, n := range boundaryNs {
		v := NewVec(n)
		for i := 1; i <= n; i++ {
			if v.Test(i) {
				t.Fatalf("n=%d: fresh vec has bit %d set", n, i)
			}
		}
		for i := 1; i <= n; i++ {
			v.Set(i)
			if !v.Test(i) {
				t.Fatalf("n=%d: Set(%d) not observed", n, i)
			}
		}
		if v.Count() != n {
			t.Fatalf("n=%d: Count = %d", n, v.Count())
		}
		for i := 1; i <= n; i++ {
			v.Clear(i)
			if v.Test(i) {
				t.Fatalf("n=%d: Clear(%d) not observed", n, i)
			}
		}
		if v.Any() {
			t.Fatalf("n=%d: Any after clearing all", n)
		}
	}
}

func TestVecMaxAndMaxBelow(t *testing.T) {
	for _, n := range boundaryNs {
		v := NewVec(n)
		if v.Max() != -1 || v.MaxBelow(n+1) != -1 {
			t.Fatalf("n=%d: empty vec Max = %d", n, v.Max())
		}
		// Reference: plain bool slices scanned the slow way; m is the
		// mask MaxAnd and MaxAndNot apply.
		ref, mref := make([]bool, n+1), make([]bool, n+1)
		m, and := NewVec(n), NewVec(n)
		src := rng.New(uint64(n)*31 + 7)
		for step := 0; step < 200; step++ {
			i := 1 + src.Intn(n)
			if ref[i] {
				v.Clear(i)
				ref[i] = false
			} else {
				v.Set(i)
				ref[i] = true
			}
			if i := 1 + src.Intn(n); mref[i] {
				m.Clear(i)
				mref[i] = false
			} else {
				m.Set(i)
				mref[i] = true
			}
			wantAnd, wantAndNot := -1, -1
			for j := n; j >= 1; j-- {
				if ref[j] && mref[j] && wantAnd < 0 {
					wantAnd = j
				}
				if ref[j] && !mref[j] && wantAndNot < 0 {
					wantAndNot = j
				}
			}
			if got := v.MaxAnd(m); got != wantAnd {
				t.Fatalf("n=%d step=%d: MaxAnd = %d, want %d", n, step, got, wantAnd)
			}
			if got := v.MaxAndNot(m); got != wantAndNot {
				t.Fatalf("n=%d step=%d: MaxAndNot = %d, want %d", n, step, got, wantAndNot)
			}
			and.And(v, m)
			for j := 1; j <= n; j++ {
				if got := and.Test(j); got != (ref[j] && mref[j]) {
					t.Fatalf("n=%d step=%d: And holds %d = %v, want %v", n, step, j, got, ref[j] && mref[j])
				}
			}
			limit := 1 + src.Intn(n+2)
			want := -1
			for j := minInt(limit-1, n); j >= 1; j-- {
				if ref[j] {
					want = j
					break
				}
			}
			if got := v.MaxBelow(limit); got != want {
				t.Fatalf("n=%d step=%d: MaxBelow(%d) = %d, want %d", n, step, limit, got, want)
			}
			wantMax := -1
			for j := n; j >= 1; j-- {
				if ref[j] {
					wantMax = j
					break
				}
			}
			if got := v.Max(); got != wantMax {
				t.Fatalf("n=%d step=%d: Max = %d, want %d", n, step, got, wantMax)
			}
		}
	}
}

func TestVecMaxBelowThermometerEdges(t *testing.T) {
	v := NewVec(130)
	v.Set(64) // last bit of word 1
	v.Set(65) // first bit of word 1? (bit 65 lives in word 1)
	v.Set(128)
	cases := []struct{ limit, want int }{
		{1, -1},   // nothing below identity 1 exists
		{64, -1},  // 64 itself excluded
		{65, 64},  // word-boundary pick
		{66, 65},  // crosses into the next word
		{128, 65}, // 128 excluded
		{129, 128},
		{131, 128}, // limit beyond n clamps
		{1000, 128},
	}
	for _, c := range cases {
		if got := v.MaxBelow(c.limit); got != c.want {
			t.Errorf("MaxBelow(%d) = %d, want %d", c.limit, got, c.want)
		}
	}
}

func TestVecPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	v := NewVec(8)
	mustPanic("NewVec(0)", func() { NewVec(0) })
	mustPanic("Set(0)", func() { v.Set(0) })
	mustPanic("Set(9)", func() { v.Set(9) })
	mustPanic("Clear(-1)", func() { v.Clear(-1) })
	mustPanic("Test(9)", func() { v.Test(9) })
	mustPanic("CopyFrom mismatch", func() { v.CopyFrom(NewVec(9)) })
	mustPanic("MaxAnd mismatch", func() { v.MaxAnd(NewVec(9)) })
	mustPanic("And mismatch", func() { v.And(v, NewVec(9)) })
}

func TestVecCloneAndCopy(t *testing.T) {
	v := NewVec(70)
	v.Set(3)
	v.Set(69)
	w := NewVec(70)
	w.CopyFrom(v)
	v.Clear(69)
	if !w.Test(3) || !w.Test(69) {
		t.Error("CopyFrom shares storage with source")
	}
	w.Reset()
	if w.Any() {
		t.Error("Reset left bits set")
	}
}

func TestVecAppendIDs(t *testing.T) {
	for _, n := range boundaryNs {
		v := NewVec(n)
		var want []int
		for i := 1; i <= n; i += 1 + i%5 {
			v.Set(i)
			want = append(want, i)
		}
		got := v.AppendIDs([]int{-1})
		if len(got) != len(want)+1 || got[0] != -1 {
			t.Fatalf("n=%d: AppendIDs did not append to dst: %v", n, got)
		}
		for i, id := range want {
			if got[i+1] != id {
				t.Fatalf("n=%d: AppendIDs = %v, want %v after the dst prefix", n, got[1:], want)
			}
		}
	}
	if ids := NewVec(5).AppendIDs(nil); len(ids) != 0 {
		t.Errorf("empty bitmap listed %v", ids)
	}
}

func TestInitVecsShareOneAllocation(t *testing.T) {
	for _, n := range boundaryNs {
		var a, b Vec
		InitVecs(n, &a, &b)
		if a.N() != n || b.N() != n {
			t.Fatalf("n=%d: InitVecs sized the bitmaps %d and %d", n, a.N(), b.N())
		}
		for i := 1; i <= n; i++ {
			a.Set(i)
		}
		if b.Any() {
			t.Fatalf("n=%d: setting every bit of one bitmap leaked into the other", n)
		}
		b.CopyFrom(&a)
		if b.Count() != n {
			t.Fatalf("n=%d: CopyFrom between InitVecs bitmaps copied %d bits", n, b.Count())
		}
	}
	var a, b, c Vec
	if allocs := testing.AllocsPerRun(10, func() { InitVecs(300, &a, &b, &c) }); allocs != 1 {
		t.Errorf("InitVecs allocates %v times, want 1", allocs)
	}
	var x, y Arrivals
	if allocs := testing.AllocsPerRun(10, func() { InitArrivals(9, 300, []*Arrivals{&x, &y}, &a, &b) }); allocs != 2 {
		t.Errorf("InitArrivals allocates %v times, want 2", allocs)
	}
	x.Pulse(300, false)
	y.Pulse(1, false)
	a.Set(300)
	if x.Get(300) != 0 || !x.Waits(300) || y.Waits(300) || x.Waits(1) || b.Any() {
		t.Error("InitArrivals backs two of its banks or bitmaps with shared words")
	}
}

// TestSteadyStateAllocs pins the kernel's zero-allocation contract:
// every operation the hot arbitration paths use runs without
// allocating once the structures are built.
func TestSteadyStateAllocs(t *testing.T) {
	const n = 200
	v := NewVec(n)
	a := NewArrivals(8, n)
	f := NewArrivals(8, n)
	for i := 1; i <= n; i += 3 {
		v.Set(i)
	}
	id := 0
	work := func() {
		v.Max()
		v.MaxBelow(77)
		v.MaxAnd(v)
		v.MaxAndNot(v)
		v.And(v, v)
		v.CopyFrom(v)
		// Enough pulses per run to fill the arrival ring and compact it.
		for k := 0; k < 3*n; k++ {
			id = id%n + 1
			a.Pulse(id, k%4 == 0)
			if k%2 == 0 {
				a.Leave(a.MaxIn(v))
			}
		}
		a.MaxIn(v)
		a.MaxInRR(v, 77)
		a.Get(1)
		a.Waits(1)
		// FCFS1's arbitration, with a dropped agent coming back at a
		// frozen counter (the slow path) every few rounds.
		for k := 0; k < 3*n; k++ {
			if k%16 == 5 {
				v.Clear(4)
			}
			f.Follow(v)
			w := f.MaxIn(v)
			f.Tick(false)
			f.Zero(w)
			f.Wrap(3)
			v.Set(4)
		}
		f.Freeze(4, 2)
	}
	work()
	if allocs := testing.AllocsPerRun(100, work); allocs != 0 {
		t.Errorf("steady-state kernel ops allocate %v times, want 0", allocs)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
