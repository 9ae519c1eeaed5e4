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
		// Reference: a plain bool slice scanned the slow way.
		ref := make([]bool, n+1)
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
}

func TestVecCloneAndCopy(t *testing.T) {
	v := NewVec(70)
	v.Set(3)
	v.Set(69)
	c := v.Clone()
	v.Clear(3)
	if !c.Test(3) || !c.Test(69) {
		t.Error("Clone shares storage with original")
	}
	w := NewVec(70)
	w.CopyFrom(c)
	c.Clear(69)
	if !w.Test(69) {
		t.Error("CopyFrom shares storage with source")
	}
	w.Reset()
	if w.Any() {
		t.Error("Reset left bits set")
	}
}

func TestPlanesStoreLoadResolve(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 129} {
		for _, width := range []int{1, 7, 64} {
			p := NewPlanes(width, n)
			req := NewVec(n)
			if w, num := p.Resolve(req); w != -1 || num != 0 {
				t.Fatalf("n=%d width=%d: empty Resolve = (%d, %d)", n, width, w, num)
			}
			src := rng.New(uint64(n*100 + width))
			nums := make([]uint64, n+1)
			mask := ^uint64(0)
			if width < 64 {
				mask = 1<<uint(width) - 1
			}
			for i := 1; i <= n; i++ {
				nums[i] = src.Uint64() & mask
				p.Store(i, nums[i])
			}
			for i := 1; i <= n; i++ {
				if p.Load(i) != nums[i] {
					t.Fatalf("n=%d width=%d: Load(%d) = %b, want %b", n, width, i, p.Load(i), nums[i])
				}
			}
			// Random request subsets: winner must match a naive max scan
			// (ties toward the higher identity).
			for trial := 0; trial < 50; trial++ {
				req.Reset()
				wantW, wantNum := -1, uint64(0)
				for i := 1; i <= n; i++ {
					if src.Intn(3) == 0 {
						req.Set(i)
						if nums[i] >= wantNum || wantW < 0 {
							wantW, wantNum = i, nums[i]
						}
					}
				}
				gotW, gotNum := p.Resolve(req)
				if gotW != wantW || gotNum != wantNum {
					t.Fatalf("n=%d width=%d trial=%d: Resolve = (%d, %b), want (%d, %b)",
						n, width, trial, gotW, gotNum, wantW, wantNum)
				}
			}
		}
	}
}

func TestPlanesStoreReplaces(t *testing.T) {
	p := NewPlanes(6, 10)
	p.Store(5, 0b111111)
	p.Store(5, 0b000001)
	if got := p.Load(5); got != 1 {
		t.Fatalf("Load after re-Store = %b, want 1", got)
	}
}

func TestPlanesPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("width 0", func() { NewPlanes(0, 4) })
	mustPanic("width 65", func() { NewPlanes(65, 4) })
	mustPanic("n 0", func() { NewPlanes(4, 0) })
	p := NewPlanes(4, 4)
	mustPanic("Store out of range", func() { p.Store(0, 1) })
	mustPanic("Store too wide", func() { p.Store(1, 1<<4) })
	mustPanic("Resolve mismatch", func() { p.Resolve(NewVec(5)) })
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

func TestCountersIncExceptZero(t *testing.T) {
	c := NewCounters(3, 70)
	mask := NewVec(70)
	for i := 1; i <= 70; i++ {
		mask.Set(i)
	}
	// Give identities 64..70 a nonzero count (word-boundary straddle).
	pre := NewVec(70)
	for i := 64; i <= 70; i++ {
		pre.Set(i)
	}
	c.Inc(pre)
	c.IncExceptZero(mask)
	for i := 1; i <= 63; i++ {
		if got := c.Get(i); got != 0 {
			t.Fatalf("zero-counter identity %d incremented to %d", i, got)
		}
	}
	for i := 64; i <= 70; i++ {
		if got := c.Get(i); got != 2 {
			t.Fatalf("nonzero identity %d = %d, want 2", i, got)
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
}

// TestSteadyStateAllocs pins the kernel's zero-allocation contract:
// every operation the hot arbitration paths use runs without
// allocating once the structures are built.
func TestSteadyStateAllocs(t *testing.T) {
	const n = 200
	v := NewVec(n)
	p := NewPlanes(12, n)
	c := NewCounters(8, n)
	for i := 1; i <= n; i += 3 {
		v.Set(i)
		p.Store(i, uint64(i))
	}
	work := func() {
		v.Max()
		v.MaxBelow(77)
		v.CopyFrom(v)
		p.Resolve(v)
		c.Inc(v)
		c.IncExceptZero(v)
		c.MaxIn(v)
		c.Zero(1)
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
