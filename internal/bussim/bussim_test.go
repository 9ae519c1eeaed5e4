package bussim

import (
	"math"
	"testing"

	"busarb/internal/core"
	"busarb/internal/dist"
)

// quickCfg returns a reduced-size config for fast tests (2000-sample
// batches instead of the paper's 8000).
func quickCfg(n int, proto string, load, cv float64, seed uint64) Config {
	f, err := core.ByName(proto)
	if err != nil {
		panic(err)
	}
	return Config{
		N:        n,
		Protocol: f,
		Inter:    UniformLoad(n, load, cv, 1.0),
		Seed:     seed,
		Batches:  10, BatchSize: 2000,
	}
}

func TestUniformLoad(t *testing.T) {
	s := UniformLoad(10, 2.5, 1.0, 1.0)
	if len(s) != 10 {
		t.Fatalf("len = %d", len(s))
	}
	// Per-agent load 0.25 -> mean interrequest 3.0.
	if math.Abs(s[0].Mean()-3.0) > 1e-12 {
		t.Errorf("mean = %v, want 3.0", s[0].Mean())
	}
	if s[0].CV() != 1.0 {
		t.Errorf("cv = %v", s[0].CV())
	}
}

func TestUniformLoadPanics(t *testing.T) {
	for _, load := range []float64{0, 10.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("load %v did not panic", load)
				}
			}()
			UniformLoad(10, load, 1, 1)
		}()
	}
}

func TestMeanForLoad(t *testing.T) {
	if m := MeanForLoad(0.5, 1.0); m != 1.0 {
		t.Errorf("MeanForLoad(0.5) = %v, want 1", m)
	}
	if m := MeanForLoad(0.1, 2.0); math.Abs(m-18) > 1e-12 {
		t.Errorf("MeanForLoad(0.1, S=2) = %v, want 18", m)
	}
	defer func() {
		if recover() == nil {
			t.Error("MeanForLoad(1.5) did not panic")
		}
	}()
	MeanForLoad(1.5, 1)
}

func TestConfigValidation(t *testing.T) {
	rr, _ := core.ByName("RR1")
	bad := []Config{
		{N: 0, Protocol: rr, Inter: []dist.Sampler{}},
		{N: 2, Protocol: nil, Inter: UniformLoad(2, 0.5, 1, 1)},
		{N: 2, Protocol: rr, Inter: UniformLoad(3, 0.5, 1, 1)},
		{N: 2, Protocol: rr, Inter: UniformLoad(2, 0.5, 1, 1), ArbOverhead: 2}, // > service
		{N: 2, Protocol: rr, Inter: UniformLoad(2, 0.5, 1, 1), UrgentProb: []float64{0.5}},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad config %d did not panic", i)
				}
			}()
			Run(cfg)
		}()
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := Run(quickCfg(10, "RR1", 1.5, 1.0, 7))
	b := Run(quickCfg(10, "RR1", 1.5, 1.0, 7))
	if a.WaitMean.Mean != b.WaitMean.Mean || a.Throughput.Mean != b.Throughput.Mean {
		t.Error("identical seeds produced different results")
	}
	c := Run(quickCfg(10, "RR1", 1.5, 1.0, 8))
	if a.WaitMean.Mean == c.WaitMean.Mean {
		t.Error("different seeds produced identical wait means (suspicious)")
	}
}

func TestThroughputMatchesPaperLambda(t *testing.T) {
	// Table 4.1(a)'s λ column for 10 agents: closed-loop sources carry
	// slightly less than the offered load once queueing sets in.
	cases := []struct{ load, wantLambda float64 }{
		{0.25, 0.25}, {0.50, 0.48}, {1.00, 0.85}, {1.50, 0.99}, {2.00, 1.00},
	}
	for _, c := range cases {
		r := Run(quickCfg(10, "RR1", c.load, 1.0, 1))
		if math.Abs(r.Throughput.Mean-c.wantLambda) > 0.02 {
			t.Errorf("load %v: throughput %v, paper λ %v", c.load, r.Throughput.Mean, c.wantLambda)
		}
	}
}

func TestUtilizationCapped(t *testing.T) {
	r := Run(quickCfg(10, "RR1", 5.0, 1.0, 1))
	if r.Utilization.Mean > 1.0+1e-9 {
		t.Errorf("utilization %v > 1", r.Utilization.Mean)
	}
	if r.Utilization.Mean < 0.99 {
		t.Errorf("saturated bus utilization %v, want ~1", r.Utilization.Mean)
	}
}

func TestAgentThroughputsSumToTotal(t *testing.T) {
	r := Run(quickCfg(10, "FCFS1", 2.0, 1.0, 3))
	sum := 0.0
	for _, e := range r.AgentThroughput {
		sum += e.Mean
	}
	if math.Abs(sum-r.Throughput.Mean) > 1e-9 {
		t.Errorf("agent sum %v != total %v", sum, r.Throughput.Mean)
	}
}

// Regression against the paper's Table 4.2(a) (10 agents): the model
// reproduces W and the waiting-time standard deviations closely.
func TestPaperTable42aValues(t *testing.T) {
	cases := []struct {
		load                 float64
		wantW                float64
		wantSDFCFS, wantSDRR float64
	}{
		{0.25, 1.64, 0.33, 0.33},
		{1.00, 2.77, 1.18, 1.30},
		{2.00, 6.00, 1.43, 2.09},
		{7.52, 9.67, 0.32, 0.33},
	}
	for _, c := range cases {
		rr := Run(quickCfg(10, "RR1", c.load, 1.0, 42))
		fc := Run(quickCfg(10, "FCFS2", c.load, 1.0, 42))
		if rel := math.Abs(rr.WaitMean.Mean-c.wantW) / c.wantW; rel > 0.05 {
			t.Errorf("load %v: W = %v, paper %v (rel err %.1f%%)", c.load, rr.WaitMean.Mean, c.wantW, 100*rel)
		}
		if rel := math.Abs(rr.WaitStdDev.Mean-c.wantSDRR) / c.wantSDRR; rel > 0.12 {
			t.Errorf("load %v: sd_RR = %v, paper %v", c.load, rr.WaitStdDev.Mean, c.wantSDRR)
		}
		if rel := math.Abs(fc.WaitStdDev.Mean-c.wantSDFCFS) / c.wantSDFCFS; rel > 0.12 {
			t.Errorf("load %v: sd_FCFS = %v, paper %v", c.load, fc.WaitStdDev.Mean, c.wantSDFCFS)
		}
	}
}

// The conservation law the paper invokes (§4, footnote 4): mean waiting
// time is identical across all work-conserving non-preemptive protocols
// whose order of service does not depend on service times.
func TestConservationLawAcrossProtocols(t *testing.T) {
	var waits []float64
	for _, name := range []string{"FP", "RR1", "RR2", "FCFS1", "FCFS2", "AAP1", "AAP2", "Hybrid"} {
		r := Run(quickCfg(10, name, 1.5, 1.0, 99))
		waits = append(waits, r.WaitMean.Mean)
	}
	for i := 1; i < len(waits); i++ {
		if rel := math.Abs(waits[i]-waits[0]) / waits[0]; rel > 0.04 {
			t.Errorf("protocol %d: W = %v vs %v (rel %.1f%%) — conservation law violated",
				i, waits[i], waits[0], 100*rel)
		}
	}
}

// RR is perfectly fair (Table 4.1): throughput ratio ~1 at every load.
func TestRRFairness(t *testing.T) {
	for _, load := range []float64{0.5, 2.0, 5.0} {
		r := Run(quickCfg(10, "RR1", load, 1.0, 5))
		ratio := r.ThroughputRatio(10, 1)
		if math.Abs(ratio.Mean-1.0) > 0.06 {
			t.Errorf("load %v: RR ratio = %s, want ~1.00", load, ratio)
		}
	}
}

// FCFS1's residual unfairness peaks near saturation at ~6-9% and decays
// at very high load (Table 4.1(a)).
func TestFCFS1UnfairnessShape(t *testing.T) {
	nearSat := Run(quickCfg(10, "FCFS1", 2.0, 1.0, 5)).ThroughputRatio(10, 1).Mean
	veryHigh := Run(quickCfg(10, "FCFS1", 7.5, 1.0, 5)).ThroughputRatio(10, 1).Mean
	if nearSat < 1.03 || nearSat > 1.15 {
		t.Errorf("near-saturation FCFS1 ratio = %v, paper ~1.09", nearSat)
	}
	if veryHigh > nearSat {
		t.Errorf("ratio should decay past saturation: %v -> %v", nearSat, veryHigh)
	}
}

// FP starves low identities under saturation: the ratio explodes.
func TestFPStarvation(t *testing.T) {
	r := Run(quickCfg(10, "FP", 3.0, 1.0, 5))
	if r.AgentThroughput[0].Mean > 0.2*r.AgentThroughput[9].Mean {
		t.Errorf("FP at saturation: agent1 %v vs agent10 %v — expected starvation",
			r.AgentThroughput[0].Mean, r.AgentThroughput[9].Mean)
	}
}

// RR's waiting-time σ exceeds FCFS's at high load; they converge at low
// load (Table 4.2).
func TestWaitVarianceOrdering(t *testing.T) {
	rrLow := Run(quickCfg(30, "RR1", 0.25, 1.0, 6))
	fcLow := Run(quickCfg(30, "FCFS2", 0.25, 1.0, 6))
	if math.Abs(rrLow.WaitStdDev.Mean/fcLow.WaitStdDev.Mean-1) > 0.1 {
		t.Errorf("low load: sd_RR %v vs sd_FCFS %v, want ~equal",
			rrLow.WaitStdDev.Mean, fcLow.WaitStdDev.Mean)
	}
	rrHi := Run(quickCfg(30, "RR1", 2.0, 1.0, 6))
	fcHi := Run(quickCfg(30, "FCFS2", 2.0, 1.0, 6))
	ratio := rrHi.WaitStdDev.Mean / fcHi.WaitStdDev.Mean
	if ratio < 1.8 {
		t.Errorf("high load 30 agents: sd ratio = %v, paper ~2.4", ratio)
	}
}

func TestRR3RepassesCountedAndHarmless(t *testing.T) {
	r3 := Run(quickCfg(10, "RR3", 1.5, 1.0, 11))
	if r3.Repasses == 0 {
		t.Error("RR3 should record empty passes")
	}
	r1 := Run(quickCfg(10, "RR1", 1.5, 1.0, 11))
	// Same grant policy, so W should be close; RR3's extra passes cost a
	// little when they spill past transaction ends.
	if rel := math.Abs(r3.WaitMean.Mean-r1.WaitMean.Mean) / r1.WaitMean.Mean; rel > 0.05 {
		t.Errorf("RR3 W = %v vs RR1 %v (rel %.1f%%)", r3.WaitMean.Mean, r1.WaitMean.Mean, 100*rel)
	}
	if r1.Repasses != 0 {
		t.Error("RR1 must not repass")
	}
}

func TestCollectWaits(t *testing.T) {
	cfg := quickCfg(10, "RR1", 1.5, 1.0, 12)
	cfg.CollectWaits = true
	r := Run(cfg)
	if r.Waits == nil || r.Waits.N() != int(r.Completions) {
		t.Fatalf("Waits ECDF missing or wrong size")
	}
	// ECDF mean must agree with the pooled accumulator.
	if math.Abs(r.Waits.Mean()-r.WaitPooled.Mean()) > 1e-9 {
		t.Errorf("ECDF mean %v != pooled %v", r.Waits.Mean(), r.WaitPooled.Mean())
	}
}

func TestCompletionsAndElapsed(t *testing.T) {
	cfg := quickCfg(5, "RR1", 1.0, 1.0, 13)
	cfg.Batches, cfg.BatchSize = 4, 500
	r := Run(cfg)
	if r.Completions != 2000 {
		t.Errorf("Completions = %d, want 2000", r.Completions)
	}
	if r.Elapsed <= 0 {
		t.Errorf("Elapsed = %v", r.Elapsed)
	}
	if len(r.AgentBatches[0]) != 4 {
		t.Errorf("batches recorded = %d, want 4", len(r.AgentBatches[0]))
	}
}

func TestNoWarmupOption(t *testing.T) {
	cfg := quickCfg(5, "RR1", 1.0, 1.0, 13)
	cfg.Warmup = -1
	cfg.Batches, cfg.BatchSize = 2, 500
	r := Run(cfg)
	if r.Completions != 1000 {
		t.Errorf("Completions = %d", r.Completions)
	}
}

func TestUnequalLoadsProportionalAtLowLoad(t *testing.T) {
	// Agent 1 at double rate: at low load, throughput ratio ≈ 2
	// (Table 4.4(a), first rows).
	n := 10
	inter := UniformLoad(n, 0.5, 1.0, 1.0)
	// Halve agent 1's mean interrequest time => double rate.
	inter[0] = dist.ByCV(inter[0].Mean()/2, 1.0)
	f, _ := core.ByName("RR1")
	r := Run(Config{N: n, Protocol: f, Inter: inter, Seed: 14, Batches: 10, BatchSize: 2000})
	ratio := r.ThroughputRatio(1, 2)
	if math.Abs(ratio.Mean-2.0) > 0.25 {
		t.Errorf("low-load double-rate ratio = %s, want ~2.0", ratio)
	}
}

func TestDeterministicWorkloadCV0(t *testing.T) {
	// CV=0 everywhere must still run and saturate cleanly.
	r := Run(quickCfg(10, "RR1", 2.0, 0.0, 15))
	if r.Utilization.Mean < 0.99 {
		t.Errorf("CV=0 saturated utilization = %v", r.Utilization.Mean)
	}
	if r.WaitStdDev.Mean > 0.5 {
		// Deterministic saturated RR: waits are nearly constant.
		t.Errorf("CV=0 sd = %v, want ~0", r.WaitStdDev.Mean)
	}
}

func TestUrgentRequestsPreempt(t *testing.T) {
	// With a priority-capable protocol, agent 1's urgent requests see
	// lower waits than at the same load without priority.
	n := 10
	mk := func(prob []float64) *Result {
		return Run(Config{
			N:          n,
			Protocol:   func(m int) core.Protocol { return core.NewPriorityRR(m, core.RRIgnoreWithinClass) },
			Inter:      UniformLoad(n, 2.0, 1.0, 1.0),
			UrgentProb: prob,
			Seed:       16, Batches: 10, BatchSize: 2000,
		})
	}
	probs := make([]float64, n)
	probs[0] = 1.0 // agent 1 always urgent
	withPrio := mk(probs)
	noPrio := mk(nil)
	if withPrio.AgentWait[0].Mean() >= noPrio.AgentWait[0].Mean() {
		t.Errorf("urgent agent wait %v should beat non-urgent %v",
			withPrio.AgentWait[0].Mean(), noPrio.AgentWait[0].Mean())
	}
}

func TestResultMeanInter(t *testing.T) {
	r := Run(quickCfg(10, "RR1", 2.5, 1.0, 17))
	if math.Abs(r.MeanInter-3.0) > 1e-12 {
		t.Errorf("MeanInter = %v, want 3.0 (load 0.25/agent)", r.MeanInter)
	}
}

func BenchmarkRunRR(b *testing.B) {
	cfg := quickCfg(30, "RR1", 1.5, 1.0, 1)
	cfg.Batches, cfg.BatchSize = 2, 1000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(cfg)
	}
}

func BenchmarkRunFCFS2(b *testing.B) {
	cfg := quickCfg(30, "FCFS2", 1.5, 1.0, 1)
	cfg.Batches, cfg.BatchSize = 2, 1000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(cfg)
	}
}

func TestResultInstanceAndClassWaits(t *testing.T) {
	n := 8
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = 0.3
	}
	res := Run(Config{
		N:          n,
		Protocol:   func(m int) core.Protocol { return core.NewPriorityFCFS1(m, core.CounterOverflow) },
		Inter:      UniformLoad(n, 2.0, 1.0, 1.0),
		UrgentProb: probs,
		Seed:       18, Batches: 5, BatchSize: 1500,
	})
	if res.Instance == nil || res.Instance.Name() != "FCFS1+prio/overflow" {
		t.Fatalf("Instance = %v", res.Instance)
	}
	if res.WaitUrgent.N() == 0 || res.WaitNormal.N() == 0 {
		t.Fatal("class wait accumulators empty")
	}
	if res.WaitUrgent.Mean() >= res.WaitNormal.Mean() {
		t.Errorf("urgent wait %v >= normal %v", res.WaitUrgent.Mean(), res.WaitNormal.Mean())
	}
	// The two classes partition all samples.
	if res.WaitUrgent.N()+res.WaitNormal.N() != res.WaitPooled.N() {
		t.Errorf("class sample counts %d+%d != pooled %d",
			res.WaitUrgent.N(), res.WaitNormal.N(), res.WaitPooled.N())
	}
}

func TestBoundaryArbOnlyCostsMoreWaiting(t *testing.T) {
	// Deferring mid-transaction arrivals to the next boundary adds an
	// exposed arbitration for some requests: W rises, modestly.
	base := quickCfg(10, "RR1", 1.0, 1.0, 22)
	resA := Run(base)
	boundary := quickCfg(10, "RR1", 1.0, 1.0, 22)
	boundary.BoundaryArbOnly = true
	resB := Run(boundary)
	if resB.WaitMean.Mean <= resA.WaitMean.Mean {
		t.Errorf("boundary-only W %v <= overlapped W %v", resB.WaitMean.Mean, resA.WaitMean.Mean)
	}
	if resB.WaitMean.Mean > resA.WaitMean.Mean+0.6 {
		t.Errorf("boundary-only penalty too large: %v vs %v", resB.WaitMean.Mean, resA.WaitMean.Mean)
	}
}
