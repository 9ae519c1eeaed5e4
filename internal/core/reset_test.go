package core

import (
	"fmt"
	"testing"

	"busarb/internal/rng"
)

// registers lists p's state encoding and the exported registers p's
// type has — BatchGen, ReleaseGen, LastWinner and every agent's
// Counter — for comparing two instances.
func registers(p Protocol) string {
	s := fmt.Sprintf("State=%x ", p.AppendState(nil))
	if v, ok := p.(interface{ BatchGen() int64 }); ok {
		s += fmt.Sprintf("BatchGen=%d ", v.BatchGen())
	}
	if v, ok := p.(interface{ ReleaseGen() int64 }); ok {
		s += fmt.Sprintf("ReleaseGen=%d ", v.ReleaseGen())
	}
	if v, ok := p.(interface{ LastWinner() int }); ok {
		s += fmt.Sprintf("LastWinner=%d ", v.LastWinner())
	}
	if v, ok := p.(interface{ Counter(id int) int }); ok {
		s += "Counter="
		for id := 1; id <= p.N(); id++ {
			s += fmt.Sprintf("%d,", v.Counter(id))
		}
	}
	return s
}

// TestResetRestoresInitialState holds every registered protocol to
// Protocol.Reset's promise: after a random history that stops with
// agents still waiting, Reset leaves an instance that a second history
// cannot tell from a fresh one — the same winner at every arbitration,
// repasses included, and the same exported registers after every step.
func TestResetRestoresInitialState(t *testing.T) {
	const n = 7
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			f, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			src := rng.New(1988)
			used := f(n)
			first := randomHistory(src, n, 300)
			replay(t, used, first[:len(first)-n]) // skip the drain
			used.Reset()
			fresh := f(n)
			if got, want := registers(used), registers(fresh); got != want {
				t.Fatalf("after Reset: %s, fresh: %s", got, want)
			}
			waiting := make(map[int]bool)
			for step, o := range randomHistory(src, n, 300) {
				if o.arrive {
					if waiting[o.id] {
						continue
					}
					waiting[o.id] = true
					used.OnRequest(o.id, o.time)
					fresh.OnRequest(o.id, o.time)
				} else {
					if len(waiting) == 0 {
						continue
					}
					ids := make([]int, 0, len(waiting))
					for id := 1; id <= n; id++ {
						if waiting[id] {
							ids = append(ids, id)
						}
					}
					for {
						a, b := used.Arbitrate(lines(n, ids...)), fresh.Arbitrate(lines(n, ids...))
						if a != b {
							t.Fatalf("step %d over %v: reset instance %+v, fresh %+v", step, ids, a, b)
						}
						if !a.Repass {
							delete(waiting, a.Winner)
							used.OnServiceStart(a.Winner, o.time)
							fresh.OnServiceStart(a.Winner, o.time)
							break
						}
					}
				}
				if got, want := registers(used), registers(fresh); got != want {
					t.Fatalf("step %d: reset instance %s, fresh %s", step, got, want)
				}
			}
		})
	}
}
