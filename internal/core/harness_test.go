package core

import (
	"sort"
	"testing"

	"busarb/internal/bitarb"
	"busarb/internal/rng"
)

// lines returns the request-line bitmap of an n-agent bus with ids
// asserted.
func lines(n int, ids ...int) *bitarb.Vec {
	v := bitarb.NewVec(n)
	for _, id := range ids {
		v.Set(id)
	}
	return v
}

// driver replays an arrival/arbitration history through a protocol,
// tracking the waiting set the simulator would maintain.
type driver struct {
	t       *testing.T
	p       Protocol
	waiting map[int]bool
	now     float64
}

func newDriver(t *testing.T, p Protocol) *driver {
	return &driver{t: t, p: p, waiting: make(map[int]bool)}
}

func (d *driver) request(id int) {
	if d.waiting[id] {
		d.t.Fatalf("%s: agent %d requested twice", d.p.Name(), id)
	}
	d.waiting[id] = true
	d.p.OnRequest(id, d.now)
}

func (d *driver) requestAt(id int, t float64) {
	d.now = t
	d.request(id)
}

func (d *driver) waitingIDs() []int {
	ids := make([]int, 0, len(d.waiting))
	for id := range d.waiting {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// arbitrate runs arbitrations (following repasses) until a winner is
// granted, then starts its service. Returns the winner.
func (d *driver) arbitrate() int {
	if len(d.waiting) == 0 {
		d.t.Fatalf("%s: arbitrate with empty waiting set", d.p.Name())
	}
	for pass := 0; ; pass++ {
		if pass > 2 {
			d.t.Fatalf("%s: more than 2 arbitration passes", d.p.Name())
		}
		out := d.p.Arbitrate(lines(d.p.N(), d.waitingIDs()...))
		if out.Repass {
			continue
		}
		if !d.waiting[out.Winner] {
			d.t.Fatalf("%s: winner %d is not waiting", d.p.Name(), out.Winner)
		}
		delete(d.waiting, out.Winner)
		d.p.OnServiceStart(out.Winner, d.now)
		return out.Winner
	}
}

// op is one step of a random history: either an arrival or a grant.
type op struct {
	arrive bool
	id     int
	time   float64
}

// randomHistory builds an interleaving of arrivals and grant attempts
// for n agents with non-decreasing times. Arrivals may name an agent
// that is already waiting and grants may hit an empty bus; the replayer
// skips those, so every protocol replaying the same history sees the
// same effective event sequence (as long as its grants match).
func randomHistory(src *rng.Source, n, steps int) []op {
	var ops []op
	now := 0.0
	for i := 0; i < steps; i++ {
		now += 0.25 + src.Float64()
		if src.Intn(5) < 3 {
			ops = append(ops, op{arrive: true, id: 1 + src.Intn(n), time: now})
			// Occasionally a simultaneous arrival (identical timestamp),
			// exercising the protocols' tie handling.
			if src.Intn(8) == 0 {
				ops = append(ops, op{arrive: true, id: 1 + src.Intn(n), time: now})
			}
		} else {
			ops = append(ops, op{arrive: false, time: now})
		}
	}
	// Drain whatever is left waiting.
	for i := 0; i < n; i++ {
		now++
		ops = append(ops, op{arrive: false, time: now})
	}
	return ops
}

// replay drives a protocol through a history and returns the grant
// sequence. Since grants free agents for re-request, the history's
// arrivals cycle through agents; the replayer reconciles by skipping
// arrivals for still-waiting agents (both protocols see the identical
// effective history).
func replay(t *testing.T, p Protocol, ops []op) []int {
	d := newDriver(t, p)
	var grants []int
	for _, o := range ops {
		if o.arrive {
			if d.waiting[o.id] {
				continue
			}
			d.requestAt(o.id, o.time)
		} else {
			d.now = o.time
			if len(d.waiting) == 0 {
				continue
			}
			grants = append(grants, d.arbitrate())
		}
	}
	return grants
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
