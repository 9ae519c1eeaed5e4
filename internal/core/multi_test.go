package core

import (
	"sort"
	"testing"

	"busarb/internal/rng"
)

// multiDriver tracks per-agent outstanding request counts for MultiFCFS.
type multiDriver struct {
	t    *testing.T
	p    *MultiFCFS
	outs []int
	now  float64
}

func newMultiDriver(t *testing.T, p *MultiFCFS) *multiDriver {
	return &multiDriver{t: t, p: p, outs: make([]int, p.N()+1)}
}

func (d *multiDriver) request(id int, now float64) {
	d.now = now
	d.outs[id]++
	d.p.OnRequest(id, now)
}

func (d *multiDriver) waitingIDs() []int {
	var ids []int
	for id := 1; id <= d.p.N(); id++ {
		if d.outs[id] > 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

func (d *multiDriver) arbitrate() int {
	out := d.p.Arbitrate(lines(d.p.N(), d.waitingIDs()...))
	d.outs[out.Winner]--
	d.p.OnServiceStart(out.Winner, d.now)
	return out.Winner
}

func TestMultiFCFSGlobalArrivalOrder(t *testing.T) {
	p := NewMultiFCFS(4, 3)
	d := newMultiDriver(t, p)
	// Arrivals: (2, t1) (2, t2) (4, t3) (1, t4) (2, t5).
	d.request(2, 1)
	d.request(2, 2)
	d.request(4, 3)
	d.request(1, 4)
	d.request(2, 5)
	want := []int{2, 2, 4, 1, 2}
	for i, w := range want {
		if g := d.arbitrate(); g != w {
			t.Fatalf("grant %d = %d, want %d", i, g, w)
		}
	}
}

func TestMultiFCFSInterleavedServiceAndArrivals(t *testing.T) {
	p := NewMultiFCFS(4, 2)
	d := newMultiDriver(t, p)
	d.request(3, 1)
	d.request(1, 2)
	if w := d.arbitrate(); w != 3 {
		t.Fatalf("grant = %d, want 3", w)
	}
	d.request(3, 3) // 3's second request is younger than 1's
	if w := d.arbitrate(); w != 1 {
		t.Fatalf("grant = %d, want 1", w)
	}
	if w := d.arbitrate(); w != 3 {
		t.Fatalf("grant = %d, want 3", w)
	}
}

func TestMultiFCFSMatchesGlobalQueueProperty(t *testing.T) {
	src := rng.New(808)
	for trial := 0; trial < 100; trial++ {
		n := 2 + src.Intn(8)
		r := 1 + src.Intn(4)
		p := NewMultiFCFS(n, r)
		d := newMultiDriver(t, p)
		// A global FIFO of (agent, seq) in arrival order; ties cannot
		// occur since times strictly increase here.
		var queue []int
		now := 0.0
		var got, want []int
		for step := 0; step < 200; step++ {
			now += 1
			if src.Intn(2) == 0 {
				id := 1 + src.Intn(n)
				if d.outs[id] >= r {
					continue
				}
				d.request(id, now)
				queue = append(queue, id)
			} else {
				if len(queue) == 0 {
					continue
				}
				want = append(want, queue[0])
				queue = queue[1:]
				got = append(got, d.arbitrate())
			}
		}
		if !equalInts(got, want) {
			t.Fatalf("trial %d (n=%d r=%d): grants %v != arrival order %v", trial, n, r, got, want)
		}
	}
}

func TestMultiFCFSWindowEnforced(t *testing.T) {
	p := NewMultiFCFS(2, 2)
	p.OnRequest(1, 0)
	p.OnRequest(1, 1)
	defer func() {
		if recover() == nil {
			t.Error("third outstanding request did not panic")
		}
	}()
	p.OnRequest(1, 2)
}

func TestMultiFCFSExtraBits(t *testing.T) {
	// §3.2: "if one allows each agent to have up to 8 requests
	// outstanding, first come first serve can still be implemented with
	// only 3 more lines".
	cases := []struct{ r, want int }{{1, 0}, {2, 1}, {3, 2}, {4, 2}, {8, 3}, {9, 4}}
	for _, c := range cases {
		p := NewMultiFCFS(30, c.r)
		if got := p.ExtraCounterBits(); got != c.want {
			t.Errorf("r=%d: ExtraCounterBits = %d, want %d", c.r, got, c.want)
		}
	}
	p := NewMultiFCFS(30, 8)
	if p.Name() != "FCFSx8" {
		t.Errorf("Name = %q", p.Name())
	}
	if p.MaxOutstanding() != 8 {
		t.Error("MaxOutstanding wrong")
	}
}

func TestMultiFCFSQueueLen(t *testing.T) {
	p := NewMultiFCFS(4, 3)
	p.OnRequest(2, 0)
	p.OnRequest(2, 1)
	if p.QueueLen(2) != 2 {
		t.Errorf("QueueLen = %d, want 2", p.QueueLen(2))
	}
	p.OnServiceStart(2, 2)
	if p.QueueLen(2) != 1 {
		t.Errorf("QueueLen = %d, want 1", p.QueueLen(2))
	}
}

func TestMultiFCFSPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("r=0 did not panic")
			}
		}()
		NewMultiFCFS(4, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("service with empty queue did not panic")
			}
		}()
		NewMultiFCFS(4, 2).OnServiceStart(1, 0)
	}()
}

func TestMultiFCFSReset(t *testing.T) {
	p := NewMultiFCFS(4, 2)
	p.OnRequest(1, 0)
	p.Reset()
	if p.QueueLen(1) != 0 {
		t.Error("Reset left queued requests")
	}
}

// With r=1, MultiFCFS degenerates to FCFS2's behavior.
func TestMultiFCFSR1MatchesFCFS2(t *testing.T) {
	src := rng.New(909)
	for trial := 0; trial < 50; trial++ {
		n := 2 + src.Intn(12)
		ops := randomHistory(src, n, 100)
		// Strip simultaneous arrivals: MultiFCFS has no same-instant tie
		// rule (it orders by pulse sequence), so only compare histories
		// with strictly increasing arrival times.
		var filtered []op
		lastT := -1.0
		for _, o := range ops {
			if o.arrive && o.time == lastT {
				continue
			}
			filtered = append(filtered, o)
			lastT = o.time
		}
		g2 := replay(t, NewFCFS2(n), filtered)
		gm := replayMulti(t, NewMultiFCFS(n, 1), filtered)
		if !equalInts(g2, gm) {
			t.Fatalf("trial %d: FCFS2 %v != MultiFCFS(r=1) %v", trial, g2, gm)
		}
	}
}

func replayMulti(t *testing.T, p *MultiFCFS, ops []op) []int {
	d := newMultiDriver(t, p)
	var grants []int
	for _, o := range ops {
		if o.arrive {
			if d.outs[o.id] > 0 {
				continue
			}
			d.request(o.id, o.time)
		} else {
			if len(d.waitingIDs()) == 0 {
				continue
			}
			grants = append(grants, d.arbitrate())
		}
	}
	return grants
}

// Keep sort imported for waitingIDs-style helpers if needed later.
var _ = sort.Ints
