package contention

import (
	"fmt"
	"math/bits"
	"testing"

	"busarb/internal/bitarb"
	"busarb/internal/rng"
)

// Planes stores one arbitration number per identity as bit-planes:
// plane b holds, for every identity, bit b of its number. A contention
// pass over a request bitmap is then a tournament from the most
// significant plane down — the direct word-parallel analogue of the
// wired-OR lines settling to the maximum competing number (§2.1).
// TestKernelPlanesMatchSettle and FuzzKernelMatchesSettle hold Run and
// RunSettle to it, a third implementation of the same settle.
type Planes struct {
	n     int
	width int
	plane [][]uint64
	cand  []uint64 // tournament scratch
}

// NewPlanes returns a zeroed plane set for identities 1..n and numbers
// of the given bit width (1..64).
func NewPlanes(width, n int) *Planes {
	if width < 1 || width > 64 {
		panic(fmt.Sprintf("planes: plane width %d out of range 1..64", width))
	}
	if n < 1 {
		panic(fmt.Sprintf("planes: Planes need at least 1 identity, got %d", n))
	}
	words := n/64 + 1
	p := &Planes{n: n, width: width, cand: make([]uint64, words)}
	p.plane = make([][]uint64, width)
	for b := range p.plane {
		p.plane[b] = make([]uint64, words)
	}
	return p
}

// Store writes identity i's arbitration number into the planes,
// replacing any previous value. The number must fit the plane width.
func (p *Planes) Store(i int, number uint64) {
	if i < 1 || i > p.n {
		panic(fmt.Sprintf("planes: identity %d out of range 1..%d", i, p.n))
	}
	if number>>uint(p.width) != 0 { // width == 64 shifts to 0: nothing exceeds
		panic(fmt.Sprintf("planes: number %b exceeds %d planes", number, p.width))
	}
	wi, bit := i/64, uint64(1)<<uint(i%64)
	for b := 0; b < p.width; b++ {
		if number&(1<<uint(b)) != 0 {
			p.plane[b][wi] |= bit
		} else {
			p.plane[b][wi] &^= bit
		}
	}
}

// Load returns identity i's stored number.
func (p *Planes) Load(i int) uint64 {
	wi, bit := i/64, uint64(1)<<uint(i%64)
	var v uint64
	for b := 0; b < p.width; b++ {
		if p.plane[b][wi]&bit != 0 {
			v |= 1 << uint(b)
		}
	}
	return v
}

// Resolve runs one contention pass among the identities in req: the
// winner is the identity applying the maximum stored number, ties
// broken toward the higher identity (impossible on a real bus, where
// numbers embed distinct static identities). It returns the winner and
// the winning number, or (-1, 0) if req is empty — the idle bus, whose
// winning identity of zero means no agent participated (§3.1).
//
// Cost is O(width · words): per plane, one masked AND-reduction over
// the candidate words.
func (p *Planes) Resolve(req *bitarb.Vec) (winner int, number uint64) {
	if req.N() != p.n {
		panic(fmt.Sprintf("planes: Resolve size mismatch: %d != %d", req.N(), p.n))
	}
	cand := p.cand
	copy(cand, req.Words())
	var win uint64
	for b := p.width - 1; b >= 0; b-- {
		// Candidates applying 1 on this plane knock out the rest —
		// exactly an arbitration line reading 1 (§2.1).
		row := p.plane[b]
		var any uint64
		for wi, c := range cand {
			any |= c & row[wi]
		}
		if any != 0 {
			win |= 1 << uint(b)
			for wi := range cand {
				cand[wi] &= row[wi]
			}
		}
	}
	for wi := len(cand) - 1; wi >= 0; wi-- {
		if cand[wi] != 0 {
			return wi*64 + bits.Len64(cand[wi]) - 1, win
		}
	}
	return -1, 0
}

func TestPlanesStoreLoadResolve(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 129} {
		for _, width := range []int{1, 7, 64} {
			p := NewPlanes(width, n)
			req := bitarb.NewVec(n)
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
	// Once built, a contention pass allocates nothing.
	const n = 200
	p, v := NewPlanes(12, n), bitarb.NewVec(n)
	for i := 1; i <= n; i += 3 {
		v.Set(i)
		p.Store(i, uint64(i))
	}
	if allocs := testing.AllocsPerRun(100, func() { p.Resolve(v) }); allocs != 0 {
		t.Errorf("Resolve allocates %v times in steady state, want 0", allocs)
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
	mustPanic("Resolve mismatch", func() { p.Resolve(bitarb.NewVec(5)) })
}
