package cyclesim

import (
	"fmt"

	"busarb/internal/bitarb"
	"busarb/internal/core"
	"busarb/internal/rng"
)

// crossShadow mirrors the Bus tick state machine but selects winners
// via an abstract core.Protocol, so the two can be driven through an
// identical request history and compared grant-for-grant: equal grant
// orders prove the line-level register/comparator/wired-OR hardware
// implements exactly the abstract protocol.
type crossShadow struct {
	proto      core.Protocol
	waiting    *bitarb.Vec // the request lines
	busyTicks  int
	nextMaster int
	arbNeeded  bool
	tick       int64
	reqSeq     float64
	grants     []int
}

func newCrossShadow(p core.Protocol) *crossShadow {
	return &crossShadow{proto: p, waiting: bitarb.NewVec(p.N())}
}

func (s *crossShadow) request(id int) {
	s.waiting.Set(id)
	// Strictly increasing timestamps: arrivals within one tick are
	// distinct a-incr pulses, matching the Bus's Request semantics.
	s.reqSeq += 0.001
	s.proto.OnRequest(id, float64(s.tick)+s.reqSeq)
}

func (s *crossShadow) step() {
	if s.busyTicks == 0 && s.nextMaster != 0 {
		id := s.nextMaster
		s.nextMaster = 0
		s.waiting.Clear(id)
		s.busyTicks = 2
		s.grants = append(s.grants, id)
		s.proto.OnServiceStart(id, float64(s.tick))
	}
	if s.nextMaster == 0 && s.waiting.Any() {
		justStarted := s.busyTicks == 2
		idle := s.busyTicks == 0
		if justStarted || idle || s.arbNeeded {
			out := s.proto.Arbitrate(s.waiting)
			if out.Repass {
				s.arbNeeded = true
			} else {
				s.arbNeeded = false
				s.nextMaster = out.Winner
			}
		}
	}
	if s.busyTicks > 0 {
		s.busyTicks--
	}
	s.tick++
}

// CrossCheck drives the line-level Bus for kind and the abstract
// protocol from factory through identical random request histories and
// returns an error on the first grant-sequence divergence. It is the
// production form of the package's shadow-replay test, exposed so
// arbverify can cross-validate the two model layers on demand.
func CrossCheck(kind Kind, factory core.Factory, n, trials, ticks int, seed uint64) error {
	if n < 2 {
		return fmt.Errorf("cyclesim: cross-check needs at least 2 agents, got %d", n)
	}
	if trials <= 0 || ticks <= 0 {
		return fmt.Errorf("cyclesim: cross-check needs positive trials and ticks, got %d and %d", trials, ticks)
	}
	src := rng.New(seed)
	for trial := 0; trial < trials; trial++ {
		bus := New(kind, n)
		shadow := newCrossShadow(factory(n))
		for tick := 0; tick < ticks; tick++ {
			for k := 0; k < 1+src.Intn(2); k++ {
				if src.Intn(3) == 0 {
					id := 1 + src.Intn(n)
					if !bus.Waiting(id) && !shadow.waiting.Test(id) {
						bus.Request(id)
						shadow.request(id)
					}
				}
			}
			bus.Step()
			shadow.step()
		}
		got := bus.GrantOrder()
		want := shadow.grants
		if len(got) != len(want) {
			return fmt.Errorf("cyclesim: %v n=%d trial %d: %d line-level grants vs %d abstract",
				kind, n, trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("cyclesim: %v n=%d trial %d: grant %d is agent %d (lines) vs %d (abstract)",
					kind, n, trial, i, got[i], want[i])
			}
		}
	}
	return nil
}
