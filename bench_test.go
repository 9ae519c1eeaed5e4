package busarb

// The benchmark harness: one testing.B benchmark per table and figure
// of the paper's evaluation section, plus the design-choice ablations.
// Each benchmark regenerates its artifact at a reduced (but shape-
// preserving) statistical effort and reports domain metrics via
// b.ReportMetric, so `go test -bench=. -benchmem` doubles as a full
// reproduction run. cmd/paper produces the full-effort versions.

import (
	"runtime"
	"testing"

	"busarb/internal/experiment"
)

// benchOpts keeps each benchmark iteration around a second. The load
// points of a table run across all cores; results are identical to a
// sequential run because every simulation is independently seeded.
var benchOpts = ExperimentOpts{
	Batches: 10, BatchSize: 1500, Seed: 1988,
	Parallel: runtime.GOMAXPROCS(0),
}

func BenchmarkTable41_10Agents(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		rows := Table41(10, false, benchOpts)
		peak = 0
		for _, r := range rows {
			if r.RatioFCFS.Mean > peak {
				peak = r.RatioFCFS.Mean
			}
		}
	}
	b.ReportMetric(peak, "peak-FCFS-ratio")
}

func BenchmarkTable41_30Agents(b *testing.B) {
	var aap float64
	for i := 0; i < b.N; i++ {
		rows := Table41(30, true, benchOpts)
		aap = rows[len(rows)-1].RatioAAP.Mean
	}
	b.ReportMetric(aap, "AAP-ratio-at-7.5")
}

func BenchmarkTable41_64Agents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Table41(64, false, benchOpts)
	}
}

// BenchmarkTable41_1024Agents runs Table 4.1 at the kernel-scale agent
// count the bit-parallel arbitration kernel unlocked (ROADMAP item 1 of
// PR 5) — far past the former ~64-agent practical ceiling. Reduced
// batch effort keeps an iteration well under a second.
func BenchmarkTable41_1024Agents(b *testing.B) {
	opts := ExperimentOpts{
		Batches: 3, BatchSize: 1000, Seed: 1988,
		Parallel: runtime.GOMAXPROCS(0),
	}
	for i := 0; i < b.N; i++ {
		Table41(1024, false, opts)
	}
}

func BenchmarkTable42_10Agents(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		peak = 0
		for _, r := range Table42(10, benchOpts) {
			if r.SDRatio.Mean > peak {
				peak = r.SDRatio.Mean
			}
		}
	}
	b.ReportMetric(peak, "peak-sd-ratio")
}

func BenchmarkTable42_30Agents(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		peak = 0
		for _, r := range Table42(30, benchOpts) {
			if r.SDRatio.Mean > peak {
				peak = r.SDRatio.Mean
			}
		}
	}
	b.ReportMetric(peak, "peak-sd-ratio")
}

func BenchmarkTable42_64Agents(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		peak = 0
		for _, r := range Table42(64, benchOpts) {
			if r.SDRatio.Mean > peak {
				peak = r.SDRatio.Mean
			}
		}
	}
	b.ReportMetric(peak, "peak-sd-ratio")
}

func BenchmarkFigure41(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		f := Figure41(30, 1.5, benchOpts)
		// Largest FCFS-over-RR CDF gap: the "sharp rise" of Figure 4.1.
		gap = 0
		for _, p := range f.Points {
			if d := p.FCFS - p.RR; d > gap {
				gap = d
			}
		}
	}
	b.ReportMetric(gap, "max-CDF-gap")
}

func BenchmarkTable43_10Agents(b *testing.B) {
	var adv float64
	for i := 0; i < b.N; i++ {
		rows := Table43(10, benchOpts)
		adv = 0
		for _, r := range rows {
			if d := r.ProdFCFS - r.ProdRR; d > adv {
				adv = d
			}
		}
	}
	b.ReportMetric(adv, "max-FCFS-prod-advantage")
}

func BenchmarkTable43_30Agents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Table43(30, benchOpts)
	}
}

func BenchmarkTable43_64Agents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Table43(64, benchOpts)
	}
}

func BenchmarkTable44_DoubleRate(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		rows := Table44(30, 2, benchOpts)
		last = rows[len(rows)-1].RatioFCFS.Mean
	}
	b.ReportMetric(last, "FCFS-ratio-at-peak-load")
}

func BenchmarkTable44_QuadRate(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		rows := Table44(30, 4, benchOpts)
		last = rows[len(rows)-1].RatioFCFS.Mean
	}
	b.ReportMetric(last, "FCFS-ratio-at-peak-load")
}

func BenchmarkTable45_10Agents(b *testing.B) {
	var cv0 float64
	for i := 0; i < b.N; i++ {
		cv0 = Table45(10, benchOpts)[0].Ratio.Mean
	}
	b.ReportMetric(cv0, "cv0-slow-ratio")
}

func BenchmarkTable45_30Agents(b *testing.B) {
	var cv0 float64
	for i := 0; i < b.N; i++ {
		cv0 = Table45(30, benchOpts)[0].Ratio.Mean
	}
	b.ReportMetric(cv0, "cv0-slow-ratio")
}

func BenchmarkTable45_64Agents(b *testing.B) {
	var cv0 float64
	for i := 0; i < b.N; i++ {
		cv0 = Table45(64, benchOpts)[0].Ratio.Mean
	}
	b.ReportMetric(cv0, "cv0-slow-ratio")
}

// Ablation benchmarks (DESIGN.md §6).

func BenchmarkAblationCounterBits(b *testing.B) {
	var oneBit float64
	for i := 0; i < b.N; i++ {
		rows := experiment.AblationCounterBits(10, 2.0, benchOpts)
		oneBit = rows[0].Ratio.Mean
	}
	b.ReportMetric(oneBit, "1bit-unfairness")
}

func BenchmarkAblationHybrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.AblationHybrid(10, 2.0, benchOpts)
	}
}

func BenchmarkAblationRR3(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, r := range experiment.AblationRR3(10, benchOpts) {
			if d := r.WaitRR3 - r.WaitRR1; d > worst {
				worst = d
			}
		}
	}
	b.ReportMetric(worst, "worst-repass-cost")
}

func BenchmarkAblationSnapshot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.AblationSnapshot(10, benchOpts)
	}
}

// Micro-benchmarks of the simulator core: events per second of the DES
// and grants per second of the line-level model.

func BenchmarkSimulatorThroughput(b *testing.B) {
	sc := EqualWorkload(30, 1.5, 1.0)
	cfg := SimConfig{Protocol: MustProtocol("RR1"), Seed: 1, Batches: 2, BatchSize: 1000}
	sc.Apply(&cfg)
	b.ResetTimer()
	completions := int64(0)
	for i := 0; i < b.N; i++ {
		completions += Simulate(cfg).Completions
	}
	b.ReportMetric(float64(completions)/b.Elapsed().Seconds(), "completions/s")
}

func BenchmarkLineLevelBusSaturated(b *testing.B) {
	bus, err := LineLevelBus("RR1", 16)
	if err != nil {
		b.Fatal(err)
	}
	for id := 1; id <= 16; id++ {
		bus.Request(id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := bus.Step(); g != nil {
			bus.Request(g.Agent)
		}
	}
}

// Substrate benchmarks: the robustness study, the multiprocessor and
// coherent machines, and the exhaustive verifier.

func BenchmarkRobustnessStudy(b *testing.B) {
	var fair float64
	for i := 0; i < b.N; i++ {
		rows := experiment.Robustness(10, 20000, []int{0, 500}, 21)
		fair = rows[1].FairnessRot
	}
	b.ReportMetric(fair, "rot-fairness-after-faults")
}

func BenchmarkMPMachine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		procs := make([]*Processor, 8)
		for j := range procs {
			procs[j] = &Processor{
				Cache:       NewCache(4096, 32, 2),
				Pattern:     &HotColdPattern{HotBytes: 2048, ColdBytes: 1 << 18, HotProb: 0.9, WriteFrac: 0.3},
				CyclePerRef: 0.1,
			}
		}
		RunMachine(MachineConfig{
			Processors: procs,
			Protocol:   MustProtocol("RR1"),
			Seed:       1,
			Batches:    2, BatchSize: 2000,
		})
	}
}

func BenchmarkCoherentMachine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		procs := make([]*CoherentProc, 6)
		for j := range procs {
			procs[j] = &CoherentProc{
				Pattern:     &HotColdPattern{HotBytes: 256, ColdBytes: 1 << 16, HotProb: 0.6, WriteFrac: 0.4},
				CyclePerRef: 0.2,
			}
		}
		RunCoherent(CoherentConfig{
			Procs:    procs,
			Protocol: MustProtocol("RR1"),
			Seed:     1,
			Horizon:  2000,
		})
	}
}

func BenchmarkSplitVsConnected(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		rows := experiment.SplitVsConnected(12, 8, 2.0, []float64{2.0},
			ExperimentOpts{Batches: 6, BatchSize: 1000, Seed: 11})
		gain = rows[0].TputSplit / rows[0].TputConnected
	}
	b.ReportMetric(gain, "split-throughput-gain")
}

func BenchmarkPriorityStudy(b *testing.B) {
	var adv float64
	for i := 0; i < b.N; i++ {
		rows := experiment.PriorityStudy(10, 2.0, []float64{0.1},
			ExperimentOpts{Batches: 6, BatchSize: 1000, Seed: 31})
		adv = rows[0].WNormal / rows[0].WUrgent
	}
	b.ReportMetric(adv, "urgent-wait-advantage")
}

func BenchmarkCostTable(b *testing.B) {
	var lines int
	for i := 0; i < b.N; i++ {
		rows := experiment.CostTable(30)
		lines = rows[len(rows)-1].ExtraLines
	}
	b.ReportMetric(float64(lines), "fcfs2-extra-lines")
}
