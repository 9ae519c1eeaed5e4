package experiment

import (
	"fmt"
	"strings"

	"busarb/internal/bitarb"
	"busarb/internal/core"
	"busarb/internal/rng"
)

// The paper's robustness claim (§1, §3): static-identity protocols are
// "more robust ... than previous distributed RR protocols that are
// based on rotating agent priorities". This study injects register
// faults into both schemes on a saturated bus and measures what the
// claim predicts: the rotating scheme accumulates arbitration
// collisions and permanent unfairness, the static scheme heals.

// RobustnessRow is one fault-rate point.
type RobustnessRow struct {
	// FaultEvery is the injection period in grants (0 = no faults).
	FaultEvery int
	// CollisionsRot is the rotating scheme's collision count over the
	// measured grants.
	CollisionsRot int64
	// FairnessRot and FairnessRR are min/max grant-count ratios across
	// agents (1.0 = perfectly fair).
	FairnessRot float64
	FairnessRR  float64
}

// Robustness runs the fault-injection comparison on an n-agent
// saturated bus for the given number of grants per fault period.
func Robustness(n, grants int, faultPeriods []int, seed uint64) []RobustnessRow {
	rows := make([]RobustnessRow, 0, len(faultPeriods))
	// Saturated: every request line stays up for the whole study (the
	// served agent requests again at once).
	waiting := bitarb.NewVec(n)
	for id := 1; id <= n; id++ {
		waiting.Set(id)
	}
	for _, period := range faultPeriods {
		rot := core.NewRotatingRR(n)
		rr := core.NewRR1(n)
		src := rng.New(seed)
		rotCounts := saturatedWithFaults(rot, waiting, grants, period, src,
			func(agent int) { rot.Corrupt(agent, 1+src.Intn(n)) })
		rrCounts := saturatedWithFaults(rr, waiting, grants, period, src,
			func(int) { rr.SetLastWinner(1 + src.Intn(n)) })
		rows = append(rows, RobustnessRow{
			FaultEvery:    period,
			CollisionsRot: rot.Collisions,
			FairnessRot:   minMaxRatio(rotCounts),
			FairnessRR:    minMaxRatio(rrCounts),
		})
	}
	return rows
}

// saturatedWithFaults drives a protocol at saturation (every agent
// re-requests immediately after service, so waiting holds every line),
// injecting a fault every `period` grants (0 disables), and returns
// per-agent grant counts.
func saturatedWithFaults(p core.Protocol, waiting *bitarb.Vec, grants, period int, src *rng.Source, inject func(agent int)) []int {
	n := waiting.N()
	for id := 1; id <= n; id++ {
		p.OnRequest(id, float64(id))
	}
	counts := make([]int, n+1)
	now := float64(n)
	for g := 0; g < grants; g++ {
		if period > 0 && g%period == period-1 {
			inject(1 + src.Intn(n))
		}
		w, _ := core.Resolve(p, waiting)
		now++
		p.OnServiceStart(w, now)
		counts[w]++
		// Saturated: the served agent requests again immediately.
		p.OnRequest(w, now)
	}
	return counts[1:]
}

func minMaxRatio(counts []int) float64 {
	lo, hi := counts[0], counts[0]
	for _, c := range counts[1:] {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if hi == 0 {
		return 1
	}
	return float64(lo) / float64(hi)
}

// FormatRobustness renders the study.
func FormatRobustness(n, grants int, rows []RobustnessRow) string {
	var b strings.Builder
	header(&b, fmt.Sprintf("Robustness under register faults (%d agents, %d grants, saturated)", n, grants))
	b.WriteString("  fault every   RotRR collisions   RotRR fairness   RR1 fairness\n")
	for _, r := range rows {
		period := "never"
		if r.FaultEvery > 0 {
			period = fmt.Sprintf("%d", r.FaultEvery)
		}
		fmt.Fprintf(&b, "  %11s   %16d   %14.2f   %12.2f\n",
			period, r.CollisionsRot, r.FairnessRot, r.FairnessRR)
	}
	b.WriteString("\n  (fairness = min/max grant share across agents; 1.00 is perfect.\n")
	b.WriteString("   A fault corrupts one agent's winner/rotation register: the static\n")
	b.WriteString("   scheme re-reads ground truth from the lines next arbitration, the\n")
	b.WriteString("   rotating scheme decodes through its broken base forever.)\n")
	return b.String()
}
