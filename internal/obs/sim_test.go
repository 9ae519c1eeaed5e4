// Cross-simulator probe tests: these run the real simulators against
// the obs consumers, so they live in an external test package (obs
// itself imports no simulator).
package obs_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"busarb/internal/bussim"
	"busarb/internal/core"
	"busarb/internal/cyclesim"
	"busarb/internal/membus"
	"busarb/internal/mp"
	"busarb/internal/obs"
	"busarb/internal/snoop"
)

func rr1() core.Factory {
	f, err := core.ByName("RR1")
	if err != nil {
		panic(err)
	}
	return f
}

// goldenConfig is the fixed-seed run whose JSONL trace is committed
// under testdata; any change to event content, ordering, or encoding
// shows up as a byte-level diff.
func goldenConfig(p obs.Probe) bussim.Config {
	return bussim.Config{
		N:        3,
		Protocol: rr1(),
		Inter:    bussim.UniformLoad(3, 1.5, 1.0, 1.0),
		Seed:     7,
		Batches:  1, BatchSize: 25,
		Warmup:   -1,
		Observer: p,
	}
}

// TestGoldenJSONLTrace pins the JSONL trace format byte for byte. To
// regenerate after an intentional schema change:
//
//	UPDATE_GOLDEN=1 go test ./internal/obs -run TestGolden
func TestGoldenJSONLTrace(t *testing.T) {
	checkGolden(t, "golden_bussim_rr1.jsonl", func(p obs.Probe) { bussim.Run(goldenConfig(p)) })
}

// snoopConfig is the two-processor shared working set the snoop
// tests below run: every kind of coherence traffic, on RR1.
func snoopConfig(p obs.Probe) snoop.Config {
	return snoop.Config{
		Procs: []*snoop.Proc{
			{Pattern: &mp.WorkingSet{Bytes: 8192, WriteFrac: 0.4}, CyclePerRef: 0.5},
			{Pattern: &mp.WorkingSet{Bytes: 8192, WriteFrac: 0.4}, CyclePerRef: 0.5},
		},
		Protocol: rr1(), Seed: 13, Horizon: 400,
		CheckInvariants: true, Observer: p,
	}
}

// membusConfig is the high-load four-processor memory bus the membus
// tests below run; split mode finds its two banks busy.
func membusConfig(mode membus.Mode, batches, size int, p obs.Probe) membus.Config {
	return membus.Config{
		N: 4, Banks: 2, Protocol: rr1(), Mode: mode,
		Inter: bussim.UniformLoad(4, 2.0, 1.0, 2.5),
		Seed:  17, Batches: batches, BatchSize: size, Observer: p,
	}
}

// TestGoldenSnoopTrace pins the snooping machine's event stream: its
// §4.1 bus steps interleaved with misses, invalidations and the
// transaction kinds.
func TestGoldenSnoopTrace(t *testing.T) {
	checkGolden(t, "golden_snoop_rr1.jsonl", func(p obs.Probe) { snoop.Run(snoopConfig(p)) })
}

// TestGoldenMembusTrace pins the memory bus's event stream in both
// disciplines; split mode adds the memory controller's response
// tenures.
func TestGoldenMembusTrace(t *testing.T) {
	for _, mode := range []membus.Mode{membus.Connected, membus.Split} {
		t.Run(mode.String(), func(t *testing.T) {
			checkGolden(t, "golden_membus_"+mode.String()+"_rr1.jsonl", func(p obs.Probe) {
				membus.Run(membusConfig(mode, 1, 40, p))
			})
		})
	}
}

// checkGolden runs a simulation into a JSONL writer and compares the
// trace byte for byte with testdata/file (rewriting it first when
// UPDATE_GOLDEN is set); the committed trace must also decode.
func checkGolden(t *testing.T, file string, run func(obs.Probe)) {
	t.Helper()
	var buf bytes.Buffer
	w := &obs.JSONLWriter{W: &buf}
	run(w)
	if w.Err != nil {
		t.Fatal(w.Err)
	}
	golden := filepath.Join("testdata", file)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace diverges from golden file %s (%d vs %d bytes); "+
			"if the change is intentional, rerun with UPDATE_GOLDEN=1",
			file, buf.Len(), len(want))
	}
	events, err := obs.ReadJSONL(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatalf("golden trace %s decoded to zero events", file)
	}
}

// TestObserverDoesNotPerturb pins the zero-cost contract's semantic
// half: attaching a probe must not change a fixed-seed run's results.
func TestObserverDoesNotPerturb(t *testing.T) {
	bare := bussim.Run(goldenConfig(nil))
	var buf obs.Buffer
	observed := bussim.Run(goldenConfig(&buf))
	if buf.Len() == 0 {
		t.Fatal("no events observed")
	}
	if bare.Completions != observed.Completions ||
		bare.WallTime != observed.WallTime ||
		bare.Utilization.Mean != observed.Utilization.Mean ||
		bare.WaitMean.Mean != observed.WaitMean.Mean {
		t.Errorf("observer perturbed the run: %+v vs %+v", bare, observed)
	}
}

// checkStartFollowsResolve asserts the core event-ordering invariant:
// a ServiceStart for an agent never precedes the ArbitrationResolve
// that selected it.
func checkStartFollowsResolve(t *testing.T, name string, events []obs.Event) {
	t.Helper()
	if len(events) == 0 {
		t.Fatalf("%s: no events", name)
	}
	credits := map[int]int{}
	starts := 0
	for i, e := range events {
		switch e.Kind {
		case obs.ArbitrationResolve:
			credits[e.Agent]++
		case obs.ServiceStart:
			starts++
			if credits[e.Agent] <= 0 {
				t.Fatalf("%s: event %d: ServiceStart for agent %d precedes its ArbitrationResolve",
					name, i, e.Agent)
			}
			credits[e.Agent]--
		}
	}
	if starts == 0 {
		t.Fatalf("%s: no ServiceStart events", name)
	}
}

// checkOneRequestPerStart asserts that no agent issues a second
// RequestIssued before the ServiceStart that serves its first: a raised
// request line is raised once. It holds on the one-request-per-agent
// simulators (bussim with no request window, snoop, whose chains
// re-request only after each transaction ends, and membus).
func checkOneRequestPerStart(t *testing.T, name string, events []obs.Event) {
	t.Helper()
	raised := map[int]bool{}
	for i, e := range events {
		switch e.Kind {
		case obs.RequestIssued:
			if raised[e.Agent] {
				t.Fatalf("%s: event %d: agent %d requests again at %v before its ServiceStart",
					name, i, e.Agent, e.Time)
			}
			raised[e.Agent] = true
		case obs.ServiceStart:
			raised[e.Agent] = false
		}
	}
}

func TestEventOrderingAcrossSimulators(t *testing.T) {
	t.Run("bussim", func(t *testing.T) {
		var buf obs.Buffer
		bussim.Run(bussim.Config{
			N: 4, Protocol: rr1(), Inter: bussim.UniformLoad(4, 2.0, 1.0, 1.0),
			Seed: 3, Batches: 2, BatchSize: 200, Warmup: -1,
			Observer: &buf,
		})
		checkStartFollowsResolve(t, "bussim", buf.Events())
		checkOneRequestPerStart(t, "bussim", buf.Events())
	})
	t.Run("cyclesim", func(t *testing.T) {
		var buf obs.Buffer
		cyclesim.Run(cyclesim.Config{
			Protocol: cyclesim.RR2, N: 5, Seed: 9, Horizon: 600, Observer: &buf,
		})
		checkStartFollowsResolve(t, "cyclesim", buf.Events())
	})
	t.Run("mp", func(t *testing.T) {
		var buf obs.Buffer
		procs := make([]*mp.Processor, 3)
		for i := range procs {
			procs[i] = &mp.Processor{
				Cache:       mp.NewCache(1024, 32, 2),
				Pattern:     &mp.WorkingSet{Bytes: 16384, WriteFrac: 0.3},
				CyclePerRef: 0.2,
			}
		}
		mp.Run(mp.MachineConfig{
			Processors: procs, Protocol: rr1(), Seed: 11,
			Batches: 2, BatchSize: 200, Observer: &buf,
		})
		checkStartFollowsResolve(t, "mp", buf.Events())
		misses := 0
		for _, e := range buf.Events() {
			if e.Kind == obs.CacheMiss {
				misses++
			}
		}
		if misses == 0 {
			t.Error("mp: no CacheMiss events")
		}
	})
	t.Run("snoop", func(t *testing.T) {
		var buf obs.Buffer
		snoop.Run(snoopConfig(&buf))
		checkStartFollowsResolve(t, "snoop", buf.Events())
		checkOneRequestPerStart(t, "snoop", buf.Events())
		var invalidations, misses int64
		for _, e := range buf.Events() {
			switch e.Kind {
			case obs.Invalidation:
				invalidations++
			case obs.CacheMiss:
				misses++
			}
		}
		if invalidations == 0 {
			t.Error("snoop: no Invalidation events on a shared working set")
		}
		if misses == 0 {
			t.Error("snoop: no CacheMiss events")
		}
	})
	t.Run("membus", func(t *testing.T) {
		for _, mode := range []membus.Mode{membus.Connected, membus.Split} {
			var buf obs.Buffer
			membus.Run(membusConfig(mode, 2, 300, &buf))
			checkStartFollowsResolve(t, "membus/"+mode.String(), buf.Events())
			checkOneRequestPerStart(t, "membus/"+mode.String(), buf.Events())
			conflicts := 0
			for _, e := range buf.Events() {
				if e.Kind == obs.BankConflict {
					conflicts++
				}
			}
			// Only split mode overlaps memory accesses, so only it can
			// find a bank still busy; connected mode serializes them.
			if mode == membus.Split && conflicts == 0 {
				t.Errorf("membus/split: no BankConflict events at high load on 2 banks")
			}
			if mode == membus.Connected && conflicts != 0 {
				t.Errorf("membus/connected: %d BankConflict events; the held bus should serialize banks", conflicts)
			}
		}
	})
}

// TestSnoopEventCountsMatchStats ties the event stream to the
// simulator's own counters: exactly one CacheMiss per recorded miss and
// one Invalidation per received invalidation.
func TestSnoopEventCountsMatchStats(t *testing.T) {
	var counter obs.Counter
	procs := []*snoop.Proc{
		{Pattern: &mp.WorkingSet{Bytes: 8192, WriteFrac: 0.4}, CyclePerRef: 0.5},
		{Pattern: &mp.WorkingSet{Bytes: 8192, WriteFrac: 0.4}, CyclePerRef: 0.5},
	}
	snoop.Run(snoop.Config{
		Procs: procs, Protocol: rr1(), Seed: 13, Horizon: 400,
		CheckInvariants: true, Observer: &counter,
	})
	var wantMiss, wantInv int64
	for _, p := range procs {
		wantMiss += p.Stats.Misses
		wantInv += p.Stats.InvalidationsRecv
	}
	if got := counter.Count(obs.CacheMiss); got != wantMiss {
		t.Errorf("CacheMiss events = %d, Stats.Misses = %d", got, wantMiss)
	}
	if got := counter.Count(obs.Invalidation); got != wantInv {
		t.Errorf("Invalidation events = %d, Stats.InvalidationsRecv = %d", got, wantInv)
	}
}

// TestMPMissEventsMatchCacheCounters pins the one-CacheMiss-per-miss
// contract of the mp wrapper probe.
func TestMPMissEventsMatchCacheCounters(t *testing.T) {
	var counter obs.Counter
	procs := make([]*mp.Processor, 2)
	for i := range procs {
		procs[i] = &mp.Processor{
			Cache:       mp.NewCache(1024, 32, 2),
			Pattern:     &mp.WorkingSet{Bytes: 16384, WriteFrac: 0.3},
			CyclePerRef: 0.2,
		}
	}
	mp.Run(mp.MachineConfig{
		Processors: procs, Protocol: rr1(), Seed: 11,
		Batches: 2, BatchSize: 200, Observer: &counter,
	})
	var want int64
	for _, p := range procs {
		want += p.Cache.Misses
	}
	// The run ends mid-flight: the last miss of each processor may have
	// been recorded by the cache but not yet reached the bus.
	got := counter.Count(obs.CacheMiss)
	if got == 0 || got > want || want-got > int64(len(procs)) {
		t.Errorf("CacheMiss events = %d, cache misses = %d (want within %d)",
			got, want, len(procs))
	}
}

// TestHorizonStopsRun pins the Horizon contract: the run ends at the
// simulated-time cutoff instead of the completion target.
func TestHorizonStopsRun(t *testing.T) {
	cfg := goldenConfig(nil)
	cfg.Batches = 100
	cfg.BatchSize = 1000
	cfg.Horizon = 50
	res := bussim.Run(cfg)
	if res.WallTime > 50 {
		t.Errorf("WallTime = %v, want <= Horizon 50", res.WallTime)
	}
	if res.Completions >= 100*1000 {
		t.Errorf("run reached the completion target despite the horizon")
	}
}
