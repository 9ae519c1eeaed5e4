package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"busarb"
	"busarb/internal/rng"
	"busarb/internal/stats"
)

// simSpec is one simulator workload: every load under every protocol,
// one busarb.Simulate call each. Timed calls use batches x batchSize;
// the statistical output checks run once, untimed, on larger check
// calls (the same seeds), which also warm the process up.
type simSpec struct {
	n                            int
	loads                        []float64
	protos                       []string
	batches, batchSize           int
	checkBatches, checkBatchSize int
}

type simCall struct {
	load  float64
	proto string
	cfg   busarb.SimConfig
	check busarb.SimConfig
}

// simCounts are the exact counts a fixed seed must repeat.
type simCounts struct {
	completions, arbitrations, exposed int64
}

func countsOf(r *busarb.Result) simCounts {
	return simCounts{r.Completions, r.Arbitrations, r.ExposedArbs}
}

// buildSimCalls is the sims' set-up: each call's configuration from its
// protocol name, load and seed. The protocols at one load share a seed,
// so they see the same arrival streams and their mean waits compare
// closely.
func buildSimCalls(spec *simSpec, seed uint64) ([]simCall, error) {
	src := rng.New(seed)
	calls := make([]simCall, 0, len(spec.loads)*len(spec.protos))
	for _, load := range spec.loads {
		loadSeed := src.Uint64()
		for _, name := range spec.protos {
			f, err := busarb.NewProtocolFactory(name)
			if err != nil {
				return nil, err
			}
			cfg := busarb.SimConfig{Protocol: f, Seed: loadSeed, Batches: spec.batches, BatchSize: spec.batchSize}
			busarb.EqualWorkload(spec.n, load, 1.0).Apply(&cfg)
			check := cfg
			check.Batches, check.BatchSize = spec.checkBatches, spec.checkBatchSize
			for _, c := range []busarb.SimConfig{cfg, check} {
				if err := c.Validate(); err != nil {
					return nil, fmt.Errorf("%s at load %v: %w", name, load, err)
				}
			}
			calls = append(calls, simCall{load: load, proto: name, cfg: cfg, check: check})
		}
	}
	return calls, nil
}

// simulatedCompletions is the work one call does: the measured
// completions plus the warm-up batch the simulator discards.
func simulatedCompletions(cfg busarb.SimConfig, r *busarb.Result) int64 {
	return r.Completions + int64(cfg.BatchSize)
}

// identityGroupRatio is Table 4.1's t_N/t_1 taken over identity groups:
// per batch, the throughput of the highest-identity eighth of the agents
// over that of the lowest-identity eighth (one agent each for n <= 8),
// as a batch-means estimate. With one agent per group it is exactly the
// paper's ratio; at n=1024 the groups hold enough completions to make
// the ratio meaningful.
func identityGroupRatio(r *busarb.Result) stats.Estimate {
	n := len(r.AgentBatches)
	g := (n + 7) / 8
	nb := len(r.AgentBatches[0])
	ratios := make([]float64, nb)
	for b := 0; b < nb; b++ {
		var lo, hi float64
		for a := 0; a < g; a++ {
			lo += r.AgentBatches[a][b]
			hi += r.AgentBatches[n-1-a][b]
		}
		ratios[b] = hi / lo
	}
	return stats.BatchMeans(ratios)
}

// checkSims runs the check calls and verifies the Table 4.1 properties
// that hold for any seed. It returns the fairness ratio (the worst
// folded identity-group ratio over the RR1 and FCFS2 calls) and the
// number of calls whose output failed a check.
func checkSims(calls []simCall, report func(string, ...any)) (fairness float64, failed int) {
	results := make([]*busarb.Result, len(calls))
	bad := make([]bool, len(calls))
	fairness = 1
	for i := range calls {
		c := &calls[i]
		r := busarb.Simulate(c.check)
		results[i] = r
		if want := int64(c.check.Batches * c.check.BatchSize); r.Completions != want {
			report("check: %s load %.2f: %d completions, want %d", c.proto, c.load, r.Completions, want)
			bad[i] = true
		}
		// Saturation: at the paper's high loads the bus never idles.
		if c.load >= 5 && r.Utilization.Mean < 0.98 {
			report("check: %s load %.2f: utilization %.4f, want >= 0.98", c.proto, c.load, r.Utilization.Mean)
			bad[i] = true
		}
		// Fairness: RR and accurate FCFS give equal agents equal
		// bandwidth (ratio 1 within a wide multiple of its interval).
		if c.proto == "RR1" || c.proto == "FCFS2" {
			e := identityGroupRatio(r)
			if math.IsNaN(e.Mean) || math.Abs(e.Mean-1) > 4*e.HalfW+0.02 {
				report("check: %s load %.2f: identity-group ratio %v, want 1", c.proto, c.load, e)
				bad[i] = true
			}
			fairness = min(fairness, e.Mean, 1/e.Mean)
		}
	}
	// Conservation: every protocol here is work-conserving and blind
	// to service times, so at one load all of them have the same mean
	// wait, within the batch-means intervals.
	for i := range calls {
		for j := i + 1; j < len(calls) && calls[j].load == calls[i].load; j++ {
			a, b := results[i].WaitMean, results[j].WaitMean
			if math.Abs(a.Mean-b.Mean) > 2*(a.HalfW+b.HalfW) {
				report("check: load %.2f: mean wait %s %v vs %s %v", calls[i].load,
					calls[i].proto, a, calls[j].proto, b)
				bad[i], bad[j] = true, true
			}
		}
	}
	for _, b := range bad {
		if b {
			failed++
		}
	}
	return fairness, failed
}

// simPhase is one stretch of timed passes over the calls.
type simPhase struct {
	passRates   []float64 // completions per reference second, one per pass
	callMS      []float64 // reference ms per call, pass-major: callMS[p*len(calls)+i]
	completions int64
	refSec      float64
	host        time.Duration // host time inside Simulate and the forced collections
	refHost     time.Duration // host time in reference slices
	refRates    []float64
	setupSec    []float64 // reference seconds of each pass's set-up, buildSimCalls
	allocs      uint64    // heap objects allocated inside Simulate (traced runs)
	attempted   int
	failed      int
}

// simTimer alternates reference slices with Simulate calls. Each pass
// over the calls ends with a forced collection, timed and charged to
// the pass, so the pass pays for collecting what it allocated and no
// garbage of it is collected inside a reference slice. (A collection
// after every call would be charged more exactly, but its cost swings
// from under 1ms to over 10ms on a shared VM, which swamps a 5ms call.)
type simTimer struct {
	spec   *simSpec
	seed   uint64
	calls  []simCall
	ref    *refKernel
	heap   *heapPeak
	proc   *procStats
	first  []simCounts // the exact counts of each call, from its first timed run
	tracer *tracer     // nil when untraced
	report func(string, ...any)
}

// runPasses runs whole passes over the calls until the deadline, with
// room for maxCalls latency samples.
func (t *simTimer) runPasses(deadline time.Time, maxCalls int) *simPhase {
	ph := &simPhase{
		passRates: make([]float64, 0, maxCalls/len(t.calls)+1),
		callMS:    make([]float64, 0, maxCalls),
		refRates:  make([]float64, 0, maxCalls+3*(maxCalls/len(t.calls)+1)),
		setupSec:  make([]float64, 0, maxCalls/len(t.calls)+1),
	}
	for time.Now().Before(deadline) && len(ph.callMS)+len(t.calls) <= maxCalls {
		t.pass(ph)
	}
	return ph
}

func (t *simTimer) pass(ph *simPhase) {
	var passComps int64
	var passRef float64
	// Each pass first repeats the set-up, between reference slices, so
	// setup_s is a median over the whole run rather than over one
	// stretch of host speed at its start.
	rate0 := t.refSlice(ph)
	start := time.Now()
	if _, err := buildSimCalls(t.spec, t.seed); err != nil {
		t.report("set-up: %v", err)
		ph.failed++
	}
	host := time.Since(start)
	rate1 := t.refSlice(ph)
	ph.setupSec = append(ph.setupSec, refSeconds(host, rate0, rate1))
	rate0 = rate1
	for i := range t.calls {
		c := &t.calls[i]
		var allocs0 uint64
		if t.tracer != nil {
			allocs0 = t.proc.read().allocs
		}
		start := time.Now()
		r := busarb.Simulate(c.cfg)
		end := time.Now()
		if t.tracer != nil {
			ph.allocs += t.proc.read().allocs - allocs0
			t.tracer.span(spanSimulate, start, end)
		}
		rate1 := t.refSlice(ph)
		rs := refSeconds(end.Sub(start), rate0, rate1)
		rate0 = rate1

		comps := simulatedCompletions(c.cfg, r)
		passComps += comps
		passRef += rs
		ph.host += end.Sub(start)
		ph.callMS = append(ph.callMS, rs*1e3)
		ph.attempted++
		got := countsOf(r)
		switch {
		case got.completions != int64(c.cfg.Batches*c.cfg.BatchSize):
			t.report("%s load %.2f: %d completions, want %d", c.proto, c.load, got.completions, c.cfg.Batches*c.cfg.BatchSize)
			ph.failed++
		case t.first[i] == (simCounts{}):
			t.first[i] = got
		case got != t.first[i]:
			t.report("%s load %.2f: counts %+v differ from the first run's %+v under the same seed", c.proto, c.load, got, t.first[i])
			ph.failed++
		}
	}
	t.heap.sample()
	start = time.Now()
	runtime.GC()
	end := time.Now()
	if t.tracer != nil {
		t.tracer.span(spanGC, start, end)
	}
	passRef += refSeconds(end.Sub(start), rate0, t.refSlice(ph))
	ph.host += end.Sub(start)
	ph.completions += passComps
	ph.refSec += passRef
	ph.passRates = append(ph.passRates, float64(passComps)/passRef)
}

func (t *simTimer) refSlice(ph *simPhase) float64 {
	start := time.Now()
	r := t.ref.slice()
	end := time.Now()
	ph.refHost += end.Sub(start)
	ph.refRates = append(ph.refRates, r)
	if t.tracer != nil {
		t.tracer.span(spanRef, start, end)
	}
	return r
}

// callTypeMS is each call's median reference latency over the phase's
// passes, sorted: the distribution of how long a caller waits for each
// kind of answer. A call's latency differs from pass to pass only by
// host noise, so its median is the call's latency, and percentiles are
// taken over the calls of a pass.
func (ph *simPhase) callTypeMS(ncalls int) []float64 {
	passes := len(ph.callMS) / ncalls
	out := make([]float64, ncalls)
	col := make([]float64, passes)
	for i := range out {
		for p := range col {
			col[p] = ph.callMS[p*ncalls+i]
		}
		out[i] = median(col)
	}
	sort.Float64s(out)
	return out
}

// observedCounts runs every call once more with an event counter as
// Observer and returns the pass's four exact counts.
func observedCounts(calls []simCall) (simCounts, int64) {
	var sum simCounts
	var events int64
	for i := range calls {
		var ctr busarb.EventCounter
		cfg := calls[i].cfg
		cfg.Observer = &ctr
		r := busarb.Simulate(cfg)
		c := countsOf(r)
		sum.completions += c.completions
		sum.arbitrations += c.arbitrations
		sum.exposed += c.exposed
		events += ctr.Total
	}
	return sum, events
}
