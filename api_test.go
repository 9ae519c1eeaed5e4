package busarb

import (
	"math"
	"strings"
	"testing"
)

func TestProtocolsSorted(t *testing.T) {
	names := Protocols()
	if len(names) < 9 {
		t.Fatalf("Protocols() = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatalf("not sorted: %v", names)
		}
	}
}

func TestNewProtocol(t *testing.T) {
	p, err := NewProtocol("RR1", 10)
	if err != nil || p.Name() != "RR1" || p.N() != 10 {
		t.Fatalf("NewProtocol: %v %v", p, err)
	}
	if _, err := NewProtocol("bogus", 10); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestMustProtocolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustProtocol(bogus) did not panic")
		}
	}()
	MustProtocol("bogus")
}

func TestSimulateEndToEnd(t *testing.T) {
	sc := EqualWorkload(10, 1.5, 1.0)
	cfg := SimConfig{Protocol: MustProtocol("RR1"), Seed: 1, Batches: 5, BatchSize: 1000}
	sc.Apply(&cfg)
	res := Simulate(cfg)
	if res.ProtocolName != "RR1" || res.Completions != 5000 {
		t.Fatalf("res = %+v", res)
	}
	if math.Abs(res.ThroughputRatio(10, 1).Mean-1.0) > 0.1 {
		t.Errorf("RR fairness ratio = %s", res.ThroughputRatio(10, 1))
	}
}

func TestWorkloadConstructors(t *testing.T) {
	if s := EqualWorkload(10, 2.0, 0.5); s.N != 10 || math.Abs(s.TotalLoad-2.0) > 1e-9 {
		t.Errorf("EqualWorkload: %+v", s)
	}
	if s := ScaledWorkload(30, 1.0, 2, 1.0); math.Abs(s.TotalLoad-31.0/30.0) > 1e-9 {
		t.Errorf("ScaledWorkload total = %v", s.TotalLoad)
	}
	if s := WorstCaseWorkload(10, 0); s.Inter[0].Mean() != 9.5 {
		t.Errorf("WorstCaseWorkload slow mean = %v", s.Inter[0].Mean())
	}
	if s := PriorityWorkload(8, 1.0, 1.0, 0.3); len(s.UrgentProb) != 8 {
		t.Errorf("PriorityWorkload: %+v", s)
	}
}

func TestNewPriorityProtocol(t *testing.T) {
	for _, name := range []string{"RR1+prio", "RR1+prio/rr", "FCFS1+prio/overflow",
		"FCFS1+prio/matched", "FCFS2+prio"} {
		p, err := NewPriorityProtocol(name, 8)
		if err != nil || p.N() != 8 {
			t.Errorf("%s: %v %v", name, p, err)
		}
	}
	if _, err := NewPriorityProtocol("nope", 8); err == nil {
		t.Error("unknown priority protocol accepted")
	}
}

func TestNewMultiFCFS(t *testing.T) {
	p := NewMultiFCFS(8, 4)
	if p.Name() != "FCFSx4" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestLineLevelBus(t *testing.T) {
	b, err := LineLevelBus("RR1", 6)
	if err != nil {
		t.Fatal(err)
	}
	b.Request(3)
	b.Request(5)
	if err := b.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if got := b.GrantOrder(); len(got) != 2 || got[0] != 5 {
		t.Errorf("grants = %v", got)
	}
	// All eight non-hybrid protocols have a line-level model, RR2 and
	// the AAPs included.
	for _, name := range []string{"FP", "RR1", "RR2", "RR3", "FCFS1", "FCFS2", "AAP1", "AAP2"} {
		if _, err := LineLevelBus(name, 4); err != nil {
			t.Errorf("LineLevelBus(%s): %v", name, err)
		}
	}
	_, err = LineLevelBus("Hybrid", 6)
	if err == nil {
		t.Fatal("Hybrid has no line-level model; want error")
	}
	// The error must enumerate the supported names.
	for _, name := range []string{"RR2", "AAP1", "FCFS2"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not enumerate %q", err, name)
		}
	}
}

func mustCycleKind(name string) CycleKind {
	k, err := LineLevelProtocol(name)
	if err != nil {
		panic(err)
	}
	return k
}

func TestRunDispatch(t *testing.T) {
	// Every Config type routes through the single Run entry point and
	// comes back with a coherent Summary.
	sc := EqualWorkload(4, 1.5, 1.0)
	simCfg := SimConfig{Protocol: MustProtocol("RR1"), Seed: 1, Batches: 2, BatchSize: 200}
	sc.Apply(&simCfg)

	procs := make([]*Processor, 2)
	for i := range procs {
		procs[i] = &Processor{
			Cache:       NewCache(1024, 32, 2),
			Pattern:     &WorkingSetPattern{Bytes: 16384, WriteFrac: 0.3},
			CyclePerRef: 0.2,
		}
	}
	cases := []struct {
		simulator string
		cfg       RunConfig
	}{
		{"bussim", simCfg},
		{"mp", MachineConfig{Processors: procs, Protocol: MustProtocol("RR1"),
			Seed: 2, Batches: 2, BatchSize: 100}},
		{"snoop", CoherentConfig{
			Procs: []*CoherentProc{
				{Pattern: &WorkingSetPattern{Bytes: 8192, WriteFrac: 0.4}, CyclePerRef: 0.5},
				{Pattern: &WorkingSetPattern{Bytes: 8192, WriteFrac: 0.4}, CyclePerRef: 0.5},
			},
			Protocol: MustProtocol("RR1"), Seed: 3, Horizon: 100}},
		{"membus", MemBusConfig{N: 4, Banks: 2, Protocol: MustProtocol("RR1"),
			Inter: simCfg.Inter, Seed: 4, Batches: 2, BatchSize: 100}},
		{"cyclesim", CycleConfig{Protocol: mustCycleKind("RR1"), N: 4, Seed: 5, Horizon: 200}},
	}
	for _, tc := range cases {
		rep, err := Run(tc.cfg)
		if err != nil {
			t.Fatalf("Run(%s): %v", tc.simulator, err)
		}
		s := rep.Summary()
		if s.Simulator != tc.simulator {
			t.Errorf("Summary().Simulator = %q, want %q", s.Simulator, tc.simulator)
		}
		if s.Grants == 0 || s.N == 0 {
			t.Errorf("%s summary = %+v", tc.simulator, s)
		}
	}
}

func TestRunValidatesInsteadOfPanicking(t *testing.T) {
	// A broken config comes back as an error from Run, not a panic.
	if _, err := Run(SimConfig{N: 1}); err == nil {
		t.Error("Run accepted a 1-agent SimConfig")
	}
	if _, err := Run(MemBusConfig{N: 0}); err == nil {
		t.Error("Run accepted an empty MemBusConfig")
	}
	if _, err := Run(CycleConfig{}); err == nil {
		t.Error("Run accepted an empty CycleConfig")
	}
	procs := []*CoherentProc{
		{Pattern: &WorkingSetPattern{Bytes: 8192}, CyclePerRef: 0.5},
		{Pattern: &WorkingSetPattern{Bytes: 8192}, CyclePerRef: 0.5},
	}
	if _, err := Run(CoherentConfig{Procs: procs, Protocol: MustProtocol("RR1"), Horizon: 10,
		ArbOverhead: -1}); err == nil {
		t.Error("Run accepted a CoherentConfig with a negative ArbOverhead")
	}
}

func TestNewProtocolFactory(t *testing.T) {
	f, err := NewProtocolFactory("FCFS1")
	if err != nil {
		t.Fatal(err)
	}
	if p := f(6); p.Name() != "FCFS1" || p.N() != 6 {
		t.Errorf("factory built %v/%d", p.Name(), p.N())
	}
	if _, err := NewProtocolFactory("bogus"); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestObserverThroughFacade(t *testing.T) {
	var buf EventBuffer
	sc := EqualWorkload(4, 1.5, 1.0)
	cfg := SimConfig{Protocol: MustProtocol("RR1"), Seed: 1, Batches: 2, BatchSize: 100,
		Observer: &buf}
	sc.Apply(&cfg)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var counter EventCounter
	for _, e := range buf.Events() {
		counter.OnEvent(e)
	}
	if counter.Count(ServiceEnd) == 0 || counter.Count(RequestIssued) == 0 {
		t.Errorf("facade probe saw %+v", counter)
	}
}

func TestExperimentFacade(t *testing.T) {
	o := ExperimentOpts{Batches: 3, BatchSize: 300, Seed: 2}
	if rows := Table41(10, false, o); len(rows) == 0 {
		t.Error("Table41 empty")
	}
	if rows := Table42(10, o); len(rows) == 0 {
		t.Error("Table42 empty")
	}
	if f := Figure41(10, 1.5, o); len(f.Points) == 0 {
		t.Error("Figure41 empty")
	}
	if rows := Table43(10, o); len(rows) == 0 {
		t.Error("Table43 empty")
	}
	if rows := Table44(10, 2, o); len(rows) == 0 {
		t.Error("Table44 empty")
	}
	if rows := Table45(10, o); len(rows) == 0 {
		t.Error("Table45 empty")
	}
}
