package grant

import (
	"testing"

	"busarb/internal/bitarb"
	"busarb/internal/core"
	"busarb/internal/rng"
)

// simDriver replays the simulators' calling convention against a
// core.Protocol with no controller code: OnRequest per arrival, Arbitrate
// over a request-line snapshot with repasses re-run at once,
// OnServiceStart for the winner, and one time step per call.
type simDriver struct {
	proto    core.Protocol
	pending  []bool
	now      float64
	repasses int64
}

func (d *simDriver) request(id int) {
	d.pending[id] = true
	d.now++
	d.proto.OnRequest(id, d.now)
}

func (d *simDriver) grant() int {
	snap := bitarb.NewVec(d.proto.N())
	for id := 1; id < len(d.pending); id++ {
		if d.pending[id] {
			snap.Set(id)
		}
	}
	out := d.proto.Arbitrate(snap)
	for out.Repass {
		d.repasses++
		out = d.proto.Arbitrate(snap)
	}
	d.pending[out.Winner] = false
	d.now++
	d.proto.OnServiceStart(out.Winner, d.now)
	return out.Winner
}

// TestSchedulerMatchesSimulatorProtocol is the contract that lets arbd
// claim the paper's fairness results: on random arrival traces the
// controller, driven as the shard drives it, grants exactly what the
// same protocol grants under the simulators' calling convention,
// repasses included.
func TestSchedulerMatchesSimulatorProtocol(t *testing.T) {
	const ops = 2000
	for _, name := range []string{"FCFS1", "FCFS2", "FP", "RR1", "RR3"} {
		f, err := core.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 3, 5, 8, 16} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(name, func(t *testing.T) {
					src := rng.New(seed*1000 + uint64(n))
					b := newShardBus(f(n))
					d := &simDriver{proto: f(n), pending: make([]bool, n+1)}
					grants, repasses := 0, int64(0)
					for op := 0; op < ops; op++ {
						// Bias toward arrivals so grants usually see
						// contention; grant anyway once everyone waits.
						waiting := b.pending()
						if (src.Float64() < 0.6 && waiting < n) || waiting == 0 {
							id := 1 + src.Intn(n)
							for d.pending[id] {
								id = 1 + src.Intn(n)
							}
							d.request(id)
							if !b.assert(id) {
								t.Fatalf("op %d: assert(%d) dup against fresh arrival", op, id)
							}
							continue
						}
						got, r := b.resolve()
						if want := d.grant(); got != want {
							t.Fatalf("op %d (grant %d): bus granted %d, simulator convention %d",
								op, grants, got, want)
						}
						grants++
						repasses += int64(r)
					}
					if grants < ops/4 {
						t.Fatalf("trace exercised only %d grants", grants)
					}
					if repasses != d.repasses {
						t.Errorf("repasses: bus %d, simulator convention %d", repasses, d.repasses)
					}
				})
			}
		}
	}
}
