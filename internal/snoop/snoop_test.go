package snoop

import (
	"testing"

	"busarb/internal/core"
	"busarb/internal/mp"
	"busarb/internal/rng"
)

func rrFactory() core.Factory {
	f, err := core.ByName("RR1")
	if err != nil {
		panic(err)
	}
	return f
}

func TestStateAndKindStrings(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Modified.String() != "M" {
		t.Error("state names wrong")
	}
	if State(9).String() != "State(9)" {
		t.Error("unknown state name wrong")
	}
	kinds := map[TxKind]string{BusRd: "BusRd", BusRdX: "BusRdX", BusUpgr: "BusUpgr", BusWB: "BusWB"}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d = %q, want %q", k, k.String(), want)
		}
	}
	if TxKind(9).String() != "TxKind(9)" {
		t.Error("unknown kind name wrong")
	}
}

// fixedPattern replays a scripted reference list, then idles on a
// private address.
type fixedPattern struct {
	refs []struct {
		addr  uint64
		write bool
	}
	idle uint64
	i    int
}

func (p *fixedPattern) Next(*rng.Source) (uint64, bool) {
	if p.i < len(p.refs) {
		r := p.refs[p.i]
		p.i++
		return r.addr, r.write
	}
	return p.idle, false
}
func (p *fixedPattern) String() string { return "fixed" }

func script(idle uint64, rs ...interface{}) *fixedPattern {
	p := &fixedPattern{idle: idle}
	for i := 0; i < len(rs); i += 2 {
		p.refs = append(p.refs, struct {
			addr  uint64
			write bool
		}{rs[i].(uint64), rs[i+1].(bool)})
	}
	return p
}

func TestReadSharingNoInvalidations(t *testing.T) {
	// Both processors read the same block repeatedly: after the two
	// fills there must be no coherence traffic at all.
	shared := uint64(0)
	procs := []*Proc{
		{Pattern: script(shared), CyclePerRef: 1.0},
		{Pattern: script(shared), CyclePerRef: 1.0},
	}
	res := Run(Config{
		Procs: procs, Protocol: rrFactory(), Seed: 1,
		Horizon: 200, CheckInvariants: true,
	})
	if res.ByKind[BusRd] != 2 {
		t.Errorf("BusRd = %d, want exactly 2 fills", res.ByKind[BusRd])
	}
	if res.ByKind[BusRdX] != 0 || res.ByKind[BusUpgr] != 0 {
		t.Errorf("write traffic on read sharing: %v", res.ByKind)
	}
	for _, p := range procs {
		if p.Stats.InvalidationsRecv != 0 {
			t.Errorf("proc %d received %d invalidations", p.ID, p.Stats.InvalidationsRecv)
		}
	}
}

func TestWritePingPong(t *testing.T) {
	// Both processors write the same block: every write by one
	// invalidates the other, so coherence misses/upgrades dominate.
	shared := uint64(0)
	mk := func() *Proc {
		p := &fixedPattern{idle: shared}
		// Idle address IS the shared block; make idle refs writes by
		// using an infinite write script instead.
		_ = p
		return &Proc{Pattern: writeForever(shared), CyclePerRef: 2.0}
	}
	procs := []*Proc{mk(), mk()}
	res := Run(Config{
		Procs: procs, Protocol: rrFactory(), Seed: 2,
		Horizon: 400, CheckInvariants: true,
	})
	inval := procs[0].Stats.InvalidationsRecv + procs[1].Stats.InvalidationsRecv
	if inval < 50 {
		t.Errorf("ping-pong produced only %d invalidations", inval)
	}
	if res.ByKind[BusRdX]+res.ByKind[BusUpgr] < 50 {
		t.Errorf("write transactions = %v", res.ByKind)
	}
	coh := procs[0].Stats.CoherenceMisses + procs[1].Stats.CoherenceMisses
	if coh < 25 {
		t.Errorf("coherence misses = %d, want dominant", coh)
	}
}

type repeatWriter struct{ addr uint64 }

func (r repeatWriter) Next(*rng.Source) (uint64, bool) { return r.addr, true }
func (r repeatWriter) String() string                  { return "writeForever" }

func writeForever(addr uint64) mp.Pattern { return repeatWriter{addr: addr} }

func TestUpgradePath(t *testing.T) {
	// One processor reads a block (S), then writes it: the write must
	// be a BusUpgr, not a refill.
	procs := []*Proc{
		{Pattern: script(1<<20, uint64(0), false, uint64(0), true), CyclePerRef: 1.0},
		{Pattern: script(1 << 21), CyclePerRef: 50.0}, // mostly idle
	}
	res := Run(Config{
		Procs: procs, Protocol: rrFactory(), Seed: 3,
		Horizon: 30, CheckInvariants: true,
	})
	if res.ByKind[BusUpgr] != 1 {
		t.Errorf("BusUpgr = %d, want 1 (S->M upgrade)", res.ByKind[BusUpgr])
	}
	if procs[0].Stats.Upgrades != 1 {
		t.Errorf("proc upgrades = %d", procs[0].Stats.Upgrades)
	}
}

func TestDirtyWritebackChain(t *testing.T) {
	// Fill a direct-mapped set with a dirty block, then miss to a
	// conflicting block: the bus must carry WB before the new fill.
	const blockBytes = 32
	cacheSize := 256 // 8 blocks direct-mapped
	conflict := uint64(cacheSize)
	procs := []*Proc{
		{Pattern: script(1<<20, uint64(0), true, conflict, false), CyclePerRef: 1.0},
		{Pattern: script(1 << 21), CyclePerRef: 100.0},
	}
	res := Run(Config{
		Procs: procs, Protocol: rrFactory(), Seed: 4,
		CacheSize: cacheSize, BlockSize: blockBytes, Ways: 1,
		Horizon: 40, CheckInvariants: true,
	})
	if res.ByKind[BusWB] != 1 {
		t.Errorf("BusWB = %d, want 1", res.ByKind[BusWB])
	}
	if procs[0].Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d", procs[0].Stats.Writebacks)
	}
}

// The version oracle: random shared-write workloads must never let any
// processor read a stale copy (CheckInvariants panics on violation).
func TestCoherenceOracleRandomWorkload(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		procs := make([]*Proc, 4)
		for i := range procs {
			procs[i] = &Proc{
				Pattern:     &mp.HotCold{HotBytes: 512, ColdBytes: 1 << 16, HotProb: 0.7, WriteFrac: 0.4},
				CyclePerRef: 0.3,
			}
		}
		res := Run(Config{
			Procs: procs, Protocol: rrFactory(), Seed: seed,
			CacheSize: 1024, BlockSize: 32, Ways: 2,
			Horizon: 500, CheckInvariants: true,
		})
		if res.Grants == 0 {
			t.Fatal("no bus traffic")
		}
	}
}

// Coherence traffic is still arbitrated fairly: identical processors
// sharing data progress at equal rates under RR.
func TestCoherentMachineFairness(t *testing.T) {
	procs := make([]*Proc, 6)
	for i := range procs {
		procs[i] = &Proc{
			Pattern:     &mp.HotCold{HotBytes: 256, ColdBytes: 1 << 16, HotProb: 0.5, WriteFrac: 0.5},
			CyclePerRef: 0.1,
		}
	}
	res := Run(Config{
		Procs: procs, Protocol: rrFactory(), Seed: 6,
		Horizon: 2000, CheckInvariants: true,
	})
	minP, maxP := res.Progress[0], res.Progress[0]
	for _, p := range res.Progress {
		if p < minP {
			minP = p
		}
		if p > maxP {
			maxP = p
		}
	}
	if minP/maxP < 0.9 {
		t.Errorf("progress spread %v..%v under RR, want near-equal", minP, maxP)
	}
	if res.Utilization() <= 0 || res.Utilization() > 1 {
		t.Errorf("utilization = %v", res.Utilization())
	}
}

// TestEveryProtocolRuns drives every registered protocol through a
// machine with contended hot blocks and write-back chains, with the
// coherence checks on. A processor whose last transaction is on the
// bus has nothing left to send, so its line is down and no protocol can
// grant it again.
func TestEveryProtocolRuns(t *testing.T) {
	for _, name := range core.Names() {
		f, err := core.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		procs := make([]*Proc, 6)
		for i := range procs {
			procs[i] = &Proc{Pattern: &mp.HotCold{HotBytes: 256, ColdBytes: 1 << 20, HotProb: 0.6, WriteFrac: 0.5},
				CyclePerRef: 0.2}
		}
		res := Run(Config{Procs: procs, Protocol: f, Seed: 9, Horizon: 5000, CheckInvariants: true})
		if res.Grants == 0 || res.ByKind[BusWB] == 0 {
			t.Errorf("%s: %d grants, %d write-backs; want both", name, res.Grants, res.ByKind[BusWB])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	rr := rrFactory()
	two := func() []*Proc {
		return []*Proc{{Pattern: writeForever(0), CyclePerRef: 1}, {Pattern: writeForever(0), CyclePerRef: 1}}
	}
	cases := []Config{
		{Procs: []*Proc{{}}, Protocol: rr, Horizon: 1},                                             // 1 proc
		{Procs: []*Proc{{}, {}}, Protocol: nil, Horizon: 1},                                        // no protocol
		{Procs: []*Proc{{Pattern: writeForever(0), CyclePerRef: 1}, {}}, Protocol: rr, Horizon: 1}, // incomplete proc
		{Procs: two(), Protocol: rr},                                                               // no horizon
		{Procs: two(), Protocol: rr, Horizon: 1, Service: -1},                                      // negative service
		{Procs: two(), Protocol: rr, Horizon: 1, ArbOverhead: -1},                                  // negative overhead
	}
	for i, cfg := range cases {
		if cfg.Validate() == nil {
			t.Errorf("config %d: Validate accepted it", i)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			Run(cfg)
		}()
	}
}

func TestMESISilentUpgrade(t *testing.T) {
	// One processor reads then writes a private block: MESI fills
	// Exclusive and upgrades silently — zero BusUpgr — while MSI pays
	// one upgrade transaction.
	mk := func(exclusive bool) (*Result, *Proc) {
		procs := []*Proc{
			{Pattern: script(1<<20, uint64(0), false, uint64(0), true), CyclePerRef: 1.0},
			{Pattern: script(1 << 21), CyclePerRef: 50.0},
		}
		res := Run(Config{
			Procs: procs, Protocol: rrFactory(), Seed: 3,
			Horizon: 30, CheckInvariants: true, Exclusive: exclusive,
		})
		return res, procs[0]
	}
	msi, _ := mk(false)
	mesi, p := mk(true)
	if msi.ByKind[BusUpgr] != 1 {
		t.Errorf("MSI BusUpgr = %d, want 1", msi.ByKind[BusUpgr])
	}
	if mesi.ByKind[BusUpgr] != 0 {
		t.Errorf("MESI BusUpgr = %d, want 0 (silent upgrade)", mesi.ByKind[BusUpgr])
	}
	if p.Stats.SilentUpgrades != 1 {
		t.Errorf("SilentUpgrades = %d, want 1", p.Stats.SilentUpgrades)
	}
}

func TestMESISharedReadPreventsExclusive(t *testing.T) {
	// Both processors read the same block before one writes it: the
	// second fill sees a holder, enters Shared, and the write still
	// needs a BusUpgr even under MESI.
	shared := uint64(0)
	procs := []*Proc{
		{Pattern: script(1<<20, shared, false, shared, true), CyclePerRef: 3.0},
		{Pattern: script(1<<21, shared, false), CyclePerRef: 1.0},
	}
	res := Run(Config{
		Procs: procs, Protocol: rrFactory(), Seed: 4,
		Horizon: 40, CheckInvariants: true, Exclusive: true,
	})
	if res.ByKind[BusUpgr] == 0 {
		t.Error("shared-then-written block upgraded silently (missed sharer)")
	}
}

func TestMESIReducesUpgradeTrafficUnderPrivateWrites(t *testing.T) {
	// Mostly-private mixed workload: MESI should eliminate most BusUpgr
	// traffic while keeping the oracle checks green.
	mk := func(exclusive bool) *Result {
		procs := make([]*Proc, 4)
		for i := range procs {
			// Disjoint per-processor working sets, a bit larger than the
			// cache: blocks churn in and out, get read (filled clean) and
			// later written — the upgrade-heavy private pattern.
			procs[i] = &Proc{
				Pattern: &mp.WorkingSet{
					Bytes:     4096,
					Base:      uint64(i) << 24,
					WriteFrac: 0.3,
				},
				CyclePerRef: 0.3,
			}
		}
		return Run(Config{
			Procs: procs, Protocol: rrFactory(), Seed: 5,
			CacheSize: 2048, Horizon: 1500, CheckInvariants: true, Exclusive: exclusive,
		})
	}
	msi := mk(false)
	mesi := mk(true)
	if msi.ByKind[BusUpgr] < 50 {
		t.Fatalf("MSI BusUpgr = %d — workload not upgrade-heavy enough to compare", msi.ByKind[BusUpgr])
	}
	if mesi.ByKind[BusUpgr] != 0 {
		t.Errorf("MESI BusUpgr = %d on fully private data, want 0", mesi.ByKind[BusUpgr])
	}
}
