package experiment

import (
	"fmt"
	"strings"

	"busarb/internal/bussim"
	"busarb/internal/core"
	"busarb/internal/workload"
)

// Priority-integration study (§2.4, §3.1, §3.2): sweep the urgent
// fraction of the traffic and measure (a) the urgent class's waiting
// advantage under each integration variant, and (b) how often the
// overflow-tolerant FCFS counter policy actually overflows — the paper
// leaves that policy's suitability to "the likelihood of overflow".

// PriorityRow is one urgent-fraction point for one protocol variant.
type PriorityRow struct {
	Variant    string
	UrgentFrac float64
	WUrgent    float64
	WNormal    float64
	// OverflowPerGrant is non-zero only for the overflow counter
	// policy: wrap events per completed request.
	OverflowPerGrant float64
}

// PriorityVariants lists the §2.4/§3 priority integrations under study.
var PriorityVariants = []string{
	"RR1+prio",
	"RR1+prio/rr",
	"FCFS1+prio/overflow",
	"FCFS1+prio/matched",
	"FCFS2+prio",
}

// PriorityStudy sweeps urgent fractions at a fixed load for every
// integration variant.
func PriorityStudy(n int, load float64, fracs []float64, o Opts) []PriorityRow {
	o = o.fill()
	type job struct {
		variant string
		frac    float64
	}
	var jobs []job
	for _, v := range PriorityVariants {
		for _, f := range fracs {
			jobs = append(jobs, job{v, f})
		}
	}
	rows := make([]PriorityRow, len(jobs))
	o.ForEach(len(jobs), func(i int) {
		j := jobs[i]
		sc := workload.PriorityMix(n, load, 1.0, j.frac)
		cfg := bussim.Config{
			Protocol:  core.Registry[j.variant],
			Seed:      o.Seed,
			Batches:   o.Batches,
			BatchSize: o.BatchSize,
		}
		sc.Apply(&cfg)
		res := bussim.Run(cfg)
		row := PriorityRow{
			Variant:    j.variant,
			UrgentFrac: j.frac,
			WUrgent:    res.WaitUrgent.Mean(),
			WNormal:    res.WaitNormal.Mean(),
		}
		if pf, ok := res.Instance.(*core.PriorityFCFS1); ok && res.Completions > 0 {
			row.OverflowPerGrant = float64(pf.Overflows()) / float64(res.Completions)
		}
		rows[i] = row
	})
	return rows
}

// FormatPriorityStudy renders the sweep grouped by variant.
func FormatPriorityStudy(n int, load float64, rows []PriorityRow) string {
	var b strings.Builder
	header(&b, fmt.Sprintf("Priority integration (%d agents, load %.1f)", n, load))
	b.WriteString("  variant               urgent%   W urgent   W normal   overflow/grant\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-20s  %6.0f%%   %8.2f   %8.2f   %14.4f\n",
			r.Variant, 100*r.UrgentFrac, r.WUrgent, r.WNormal, r.OverflowPerGrant)
	}
	return b.String()
}
