// Package workload builds the agent populations used in the paper's
// simulation experiments (§4.2–§4.5): equal-rate agents, one agent at a
// multiple of the others' request rate, the contrived "just miss"
// worst case for round-robin, and a priority-traffic mix.
package workload

import (
	"fmt"

	"busarb/internal/bussim"
	"busarb/internal/dist"
)

// Scenario is a named agent population for the bus simulator.
type Scenario struct {
	// Name identifies the scenario in reports.
	Name string
	// N is the number of agents.
	N int
	// Inter holds each agent's interrequest sampler (Inter[i] = agent i+1).
	Inter []dist.Sampler
	// UrgentProb optionally marks per-agent urgent-request probability.
	UrgentProb []float64
	// TotalLoad is the total offered load (sum of per-agent loads).
	TotalLoad float64
	// Description explains the construction for experiment records.
	Description string
}

// Apply copies the scenario into a simulator config.
func (s Scenario) Apply(cfg *bussim.Config) {
	cfg.N = s.N
	cfg.Inter = s.Inter
	cfg.UrgentProb = s.UrgentProb
}

// Equal builds n agents with identical interrequest distributions
// (mean set so the total offered load is totalLoad; coefficient of
// variation cv), the §4.2/§4.3 population.
func Equal(n int, totalLoad, cv float64) Scenario {
	return Scenario{
		Name:        fmt.Sprintf("equal(n=%d, load=%.2f, cv=%.2f)", n, totalLoad, cv),
		N:           n,
		Inter:       bussim.UniformLoad(n, totalLoad, cv, 1.0),
		TotalLoad:   totalLoad,
		Description: "all agents identical (§4.2)",
	}
}

// OneScaled builds the §4.4 population: agent 1 offers factor times the
// load of each other agent; every other agent offers baseLoad/n. The
// total offered load is therefore baseLoad*(n-1+factor)/n — e.g. the
// paper's 1.03 for baseLoad 1.0, n=30, factor 2.
func OneScaled(n int, baseLoad, factor, cv float64) Scenario {
	per := baseLoad / float64(n)
	scaled := factor * per
	if scaled >= 1 {
		panic(fmt.Sprintf("workload: scaled per-agent load %v >= 1", scaled))
	}
	inter := make([]dist.Sampler, n)
	inter[0] = dist.ByCV(bussim.MeanForLoad(scaled, 1.0), cv)
	rest := dist.ByCV(bussim.MeanForLoad(per, 1.0), cv)
	for i := 1; i < n; i++ {
		inter[i] = rest
	}
	return Scenario{
		Name:        fmt.Sprintf("one-scaled(n=%d, base=%.2f, x%.0f, cv=%.2f)", n, baseLoad, factor, cv),
		N:           n,
		Inter:       inter,
		TotalLoad:   per * (float64(n) - 1 + factor),
		Description: "agent 1 at a multiple of the common request rate (§4.4)",
	}
}

// WorstCaseRR builds the §4.5 population: the "slow" agent (identity 1)
// has interrequest mean n-0.5 and the others n-3.6, at the given
// coefficient of variation. With cv=0 the slow agent deterministically
// "just misses" its round-robin turn every cycle.
func WorstCaseRR(n int, cv float64) Scenario {
	if n < 5 {
		panic("workload: WorstCaseRR needs n >= 5 for positive interrequest times")
	}
	slow := float64(n) - 0.5
	other := float64(n) - 3.6
	inter := make([]dist.Sampler, n)
	inter[0] = dist.ByCV(slow, cv)
	rest := dist.ByCV(other, cv)
	for i := 1; i < n; i++ {
		inter[i] = rest
	}
	loadSlow := 1 / (1 + slow)
	loadOther := 1 / (1 + other)
	return Scenario{
		Name:        fmt.Sprintf("worst-case-rr(n=%d, cv=%.2f)", n, cv),
		N:           n,
		Inter:       inter,
		TotalLoad:   loadSlow + float64(n-1)*loadOther,
		Description: "slow agent repeatedly just misses its RR turn (§4.5)",
	}
}

// LoadRatioWorstCase returns Load_slow / Load_other for the §4.5
// scenario, the paper's third column.
func LoadRatioWorstCase(n int) float64 {
	slow := float64(n) - 0.5
	other := float64(n) - 3.6
	return (1 / (1 + slow)) / (1 / (1 + other))
}

// PriorityMix builds n equal agents where each request is urgent with
// probability urgentProb (for the §2.4/§3 priority-integration studies;
// not part of the paper's tables).
func PriorityMix(n int, totalLoad, cv, urgentProb float64) Scenario {
	s := Equal(n, totalLoad, cv)
	s.Name = fmt.Sprintf("priority-mix(n=%d, load=%.2f, urgent=%.2f)", n, totalLoad, urgentProb)
	s.UrgentProb = make([]float64, n)
	for i := range s.UrgentProb {
		s.UrgentProb[i] = urgentProb
	}
	s.Description = "equal agents with a fraction of urgent requests"
	return s
}
