// Package snoop models a snooping-coherent shared-bus multiprocessor:
// private MSI caches whose misses, upgrades, and write-backs become bus
// transactions arbitrated by the paper's protocols, with every cache
// observing committed transactions on the bus (the same broadcast
// property §2.1 relies on for arbitration).
//
// Unlike internal/mp — which pre-executes references lazily and is
// therefore oblivious to other processors — this machine executes every
// reference at simulation time, so invalidations arrive exactly when
// the invalidating transaction commits on the bus. A per-block version
// oracle checks coherence: a cached copy is readable only while no
// other processor has written the block, so every read hit must observe
// the block's current global version.
package snoop

import (
	"fmt"

	"busarb/internal/bitarb"
	"busarb/internal/core"
	"busarb/internal/mp"
	"busarb/internal/obs"
	"busarb/internal/rng"
	"busarb/internal/sim"
)

// State is a cache-line coherence state (MSI, plus Exclusive when the
// machine runs in MESI mode).
type State uint8

// The coherence states.
const (
	Invalid State = iota
	Shared
	// Exclusive: the only cached copy, clean (MESI mode only). A write
	// hit upgrades to Modified silently, with no bus transaction.
	Exclusive
	Modified
)

// String names the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// TxKind is a bus-transaction type.
type TxKind uint8

// Bus transaction kinds.
const (
	// BusRd fills a block for reading (result state Shared).
	BusRd TxKind = iota
	// BusRdX fills a block for writing (result state Modified);
	// invalidates all other copies.
	BusRdX
	// BusUpgr upgrades Shared to Modified without a data transfer;
	// invalidates all other copies.
	BusUpgr
	// BusWB writes a dirty victim back to memory.
	BusWB
)

// String names the transaction kind.
func (k TxKind) String() string {
	switch k {
	case BusRd:
		return "BusRd"
	case BusRdX:
		return "BusRdX"
	case BusUpgr:
		return "BusUpgr"
	case BusWB:
		return "BusWB"
	}
	return fmt.Sprintf("TxKind(%d)", uint8(k))
}

type line struct {
	tag     uint64
	state   State
	lru     uint64
	version uint64 // global block version captured at fill/upgrade
}

// cache is a set-associative MSI cache.
type cache struct {
	sets      int
	ways      int
	blockBits uint
	lines     [][]line
	clock     uint64
}

func newCache(sizeBytes, blockBytes, ways int) *cache {
	// Reuse mp's geometry validation by constructing (and discarding) a
	// plain cache with the same parameters.
	mp.NewCache(sizeBytes, blockBytes, ways)
	blocks := sizeBytes / blockBytes
	sets := blocks / ways
	blockBits := uint(0)
	for 1<<blockBits < blockBytes {
		blockBits++
	}
	c := &cache{sets: sets, ways: ways, blockBits: blockBits}
	c.lines = make([][]line, sets)
	for s := range c.lines {
		c.lines[s] = make([]line, ways)
	}
	return c
}

func (c *cache) set(block uint64) int { return int(block % uint64(c.sets)) }

// lookup returns the way holding block, or -1.
func (c *cache) lookup(block uint64) int {
	s := c.set(block)
	for w := range c.lines[s] {
		l := &c.lines[s][w]
		if l.state != Invalid && l.tag == block {
			return w
		}
	}
	return -1
}

// victim picks the fill way: an Invalid way if any, else LRU.
func (c *cache) victim(block uint64) int {
	s := c.set(block)
	best, bestLRU := 0, ^uint64(0)
	for w := range c.lines[s] {
		l := &c.lines[s][w]
		if l.state == Invalid {
			return w
		}
		if l.lru < bestLRU {
			bestLRU = l.lru
			best = w
		}
	}
	return best
}

func (c *cache) touch(block uint64, w int) {
	c.clock++
	c.lines[c.set(block)][w].lru = c.clock
}

// Stats collects one processor's coherence statistics.
type Stats struct {
	Refs          int64 // references executed
	Reads, Writes int64
	Misses        int64 // fills (BusRd + BusRdX)
	Upgrades      int64 // BusUpgr transactions
	Writebacks    int64
	// InvalidationsRecv counts copies lost to other processors' writes;
	// CoherenceMisses counts misses to blocks this cache previously
	// held but lost to an invalidation (the sharing traffic).
	InvalidationsRecv int64
	CoherenceMisses   int64
	// SilentUpgrades counts Exclusive->Modified transitions (MESI mode):
	// writes that MSI would have paid a BusUpgr for.
	SilentUpgrades int64
}

// Proc is one processor of the machine.
type Proc struct {
	ID          int
	Pattern     mp.Pattern
	CyclePerRef float64
	Stats       Stats

	cache *cache
	src   *rng.Source

	// Pending transaction chain for the current stalled reference:
	// e.g. [BusWB victim, BusRdX block].
	pendingTx    []tx
	pendingAddr  uint64
	pendingWrite bool

	// invalidated remembers blocks lost to snooped invalidations, to
	// classify later misses as coherence misses.
	invalidated map[uint64]bool
}

type tx struct {
	kind  TxKind
	block uint64
}

// Config assembles a snooping machine.
type Config struct {
	Procs     []*Proc
	Protocol  core.Factory
	CacheSize int // bytes (default 4096)
	BlockSize int // bytes (default 32)
	Ways      int // associativity (default 2)
	Seed      uint64
	// Horizon is the simulated time to run (bus-transaction units).
	Horizon float64
	// Observer, if non-nil, receives the machine's event stream:
	// request/arbitration/service events plus CacheMiss at each stalled
	// reference, Invalidation per copy lost to another writer, and
	// ServiceStart/ServiceEnd labeled with the transaction kind.
	Observer obs.Probe
	// Service and ArbOverhead default to the paper's 1.0 and 0.5. An
	// upgrade (no data transfer) costs half a service time.
	Service     float64
	ArbOverhead float64
	// CheckInvariants enables the single-writer and version-oracle
	// checks on every reference (tests keep it on).
	CheckInvariants bool
	// Exclusive enables the MESI Exclusive state: a fill that no other
	// cache holds enters E (real buses signal this on a shared line),
	// and a later write hit upgrades to M silently, saving the BusUpgr.
	Exclusive bool
}

// Result reports machine-level measurements.
type Result struct {
	Protocol string
	N        int
	Time     float64
	BusBusy  float64
	Grants   int64
	ByKind   map[TxKind]int64
	Progress []float64 // per-processor refs per unit time
}

// Utilization returns the bus busy fraction.
func (r *Result) Utilization() float64 {
	if r.Time <= 0 {
		return 0
	}
	return r.BusBusy / r.Time
}

// Summary implements the cross-simulator Report surface.
func (r *Result) Summary() obs.Summary {
	return obs.Summary{
		Simulator:   "snoop",
		Protocol:    r.Protocol,
		N:           r.N,
		Time:        r.Time,
		Grants:      r.Grants,
		Utilization: r.Utilization(),
	}
}

// The machine's event kinds. A processor has at most one reference
// pending, the bus carries one transaction at a time and one
// arbitration is in flight at a time, so the event argument — the
// processor — and machine.inflight are all the state an event needs.
// evResolve and evTxEnd are therefore declared solo
// (sim.Scheduler.Solo): they skip the heap, and a second one pending
// would panic.
const (
	evRef     sim.Kind = iota // the processor executes its next reference
	evResolve                 // the arbitration in flight settles
	evTxEnd                   // the processor's bus transaction completes
)

type machine struct {
	cfg   Config
	sched sim.Scheduler
	proto core.Protocol
	procs []*Proc // index 0 unused

	waitingCount int
	busBusy      bool
	arbitrating  bool
	pendingWin   int
	// snap is the request-line snapshot of the arbitration in flight
	// (one at a time: arbitrating guards), reused across arbitrations.
	snap *bitarb.Vec
	// inflight is the transaction on the bus (one at a time).
	inflight tx

	versions map[uint64]uint64 // per-block global write version
	res      *Result
}

// Validate checks the configuration without running it; Run panics on
// exactly these errors.
func (cfg Config) Validate() error {
	if len(cfg.Procs) < 2 {
		return fmt.Errorf("snoop: need at least two processors, got %d", len(cfg.Procs))
	}
	if cfg.Protocol == nil {
		return fmt.Errorf("snoop: Protocol factory is required")
	}
	for i, p := range cfg.Procs {
		if p.Pattern == nil || p.CyclePerRef <= 0 {
			return fmt.Errorf("snoop: processor %d incompletely configured", i+1)
		}
	}
	if cfg.Horizon <= 0 {
		return fmt.Errorf("snoop: positive Horizon required, got %v", cfg.Horizon)
	}
	return nil
}

// Run executes the machine until the simulated clock reaches
// cfg.Horizon.
func Run(cfg Config) *Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := len(cfg.Procs)
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 4096
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 32
	}
	if cfg.Ways == 0 {
		cfg.Ways = 2
	}
	if cfg.Service == 0 {
		cfg.Service = 1.0
	}
	if cfg.ArbOverhead == 0 {
		cfg.ArbOverhead = 0.5
	}
	m := &machine{
		cfg:      cfg,
		proto:    cfg.Protocol(n),
		procs:    make([]*Proc, n+1),
		snap:     bitarb.NewVec(n),
		versions: make(map[uint64]uint64),
		res: &Result{
			N:        n,
			ByKind:   make(map[TxKind]int64),
			Progress: make([]float64, n),
		},
	}
	m.res.Protocol = m.proto.Name()
	m.sched.Solo(evResolve, evTxEnd)
	master := rng.New(cfg.Seed)
	for i, p := range cfg.Procs {
		p.ID = i + 1
		p.cache = newCache(cfg.CacheSize, cfg.BlockSize, cfg.Ways)
		p.src = master.Split()
		p.invalidated = make(map[uint64]bool)
		m.procs[p.ID] = p
		m.scheduleRef(p)
	}
	for {
		kind, id, ok := m.sched.Next(cfg.Horizon)
		if !ok {
			break
		}
		switch kind {
		case evRef:
			m.executeRef(m.procs[id])
		case evResolve:
			m.resolve()
		case evTxEnd:
			m.completeTx(m.procs[id], m.inflight)
		}
	}
	m.res.Time = cfg.Horizon
	for i, p := range cfg.Procs {
		m.res.Progress[i] = float64(p.Stats.Refs) / cfg.Horizon
	}
	return m.res
}

// emit forwards an event to the configured observer, if any.
func (m *machine) emit(e obs.Event) {
	if m.cfg.Observer != nil {
		m.cfg.Observer.OnEvent(e)
	}
}

func (m *machine) scheduleRef(p *Proc) {
	m.sched.After(p.CyclePerRef, evRef, p.ID)
}

// executeRef runs one reference; on a hit the processor keeps going, on
// coherence work it stalls and requests the bus.
func (m *machine) executeRef(p *Proc) {
	addr, write := p.Pattern.Next(p.src)
	block := addr >> p.cache.blockBits
	p.Stats.Refs++
	if write {
		p.Stats.Writes++
	} else {
		p.Stats.Reads++
	}
	w := p.cache.lookup(block)
	if w >= 0 {
		l := &p.cache.lines[p.cache.set(block)][w]
		p.cache.touch(block, w)
		switch {
		case !write:
			if m.cfg.CheckInvariants && l.version != m.versions[block] {
				panic(fmt.Sprintf("snoop: proc %d read stale block %d: version %d, global %d",
					p.ID, block, l.version, m.versions[block]))
			}
			m.scheduleRef(p)
			return
		case l.state == Modified:
			m.versions[block]++
			l.version = m.versions[block]
			m.scheduleRef(p)
			return
		case l.state == Exclusive:
			// MESI: the only copy — upgrade silently, no bus traffic.
			l.state = Modified
			m.versions[block]++
			l.version = m.versions[block]
			p.Stats.SilentUpgrades++
			m.scheduleRef(p)
			return
		default: // write hit on Shared: upgrade
			p.pendingTx = []tx{{kind: BusUpgr, block: block}}
			p.pendingAddr = addr
			p.pendingWrite = true
			m.request(p)
			return
		}
	}
	// Miss: maybe a write-back, then the fill.
	p.Stats.Misses++
	m.emit(obs.Event{Time: m.sched.Now(), Kind: obs.CacheMiss, Agent: p.ID, Aux: int64(block)})
	if p.invalidated[block] {
		p.Stats.CoherenceMisses++
		delete(p.invalidated, block)
	}
	p.pendingTx = p.pendingTx[:0]
	v := p.cache.victim(block)
	vl := &p.cache.lines[p.cache.set(block)][v]
	if vl.state == Modified {
		p.pendingTx = append(p.pendingTx, tx{kind: BusWB, block: vl.tag})
	}
	kind := BusRd
	if write {
		kind = BusRdX
	}
	p.pendingTx = append(p.pendingTx, tx{kind: kind, block: block})
	p.pendingAddr = addr
	p.pendingWrite = write
	m.request(p)
}

// --- bus state machine (the §4.1 rules, as in bussim) ---

func (m *machine) request(p *Proc) {
	m.waitingCount++
	m.proto.OnRequest(p.ID, m.sched.Now())
	m.emit(obs.Event{Time: m.sched.Now(), Kind: obs.RequestIssued, Agent: p.ID})
	if !m.arbitrating && m.pendingWin == 0 {
		m.beginArbitration()
	}
}

// snapshot latches every processor with a transaction chain in
// progress (its request line stays high through the chain) into snap.
func (m *machine) snapshot() {
	m.snap.Reset()
	for id := 1; id < len(m.procs); id++ {
		if len(m.procs[id].pendingTx) > 0 {
			m.snap.Set(id)
		}
	}
}

func (m *machine) beginArbitration() {
	if m.waitingCount == 0 {
		return
	}
	m.arbitrating = true
	m.snapshot()
	if m.cfg.Observer != nil {
		m.emit(obs.Event{Time: m.sched.Now(), Kind: obs.ArbitrationStart,
			Agents: m.snap.AppendIDs(make([]int, 0, m.snap.Count()))})
	}
	m.sched.After(m.cfg.ArbOverhead, evResolve, 0)
}

func (m *machine) resolve() {
	out := m.proto.Arbitrate(m.snap)
	if out.Repass {
		m.emit(obs.Event{Time: m.sched.Now(), Kind: obs.Repass})
		m.snapshot()
		m.sched.After(m.cfg.ArbOverhead, evResolve, 0)
		return
	}
	m.arbitrating = false
	m.emit(obs.Event{Time: m.sched.Now(), Kind: obs.ArbitrationResolve, Agent: out.Winner})
	if m.busBusy {
		m.pendingWin = out.Winner
	} else {
		m.startTx(out.Winner)
	}
}

func (m *machine) startTx(id int) {
	p := m.procs[id]
	t := p.pendingTx[0]
	m.pendingWin = 0
	m.busBusy = true
	dur := m.cfg.Service
	if t.kind == BusUpgr {
		// No data phase: an address-only transaction at half cost.
		dur = m.cfg.Service / 2
	}
	// The agent releases the request line only when its whole chain is
	// done; mid-chain it competes again immediately, but the protocol
	// sees a service start per transaction.
	m.proto.OnServiceStart(id, m.sched.Now())
	m.emit(obs.Event{Time: m.sched.Now(), Kind: obs.ServiceStart, Agent: id,
		Aux: int64(t.block), Label: t.kind.String()})
	m.waitingCount--
	m.res.Grants++
	m.res.ByKind[t.kind]++
	m.res.BusBusy += dur
	m.inflight = t
	m.sched.After(dur, evTxEnd, id)
	if m.waitingCount > 0 && !m.arbitrating {
		m.beginArbitration()
	}
}

func (m *machine) completeTx(p *Proc, t tx) {
	m.busBusy = false
	m.emit(obs.Event{Time: m.sched.Now(), Kind: obs.ServiceEnd, Agent: p.ID,
		Aux: int64(t.block), Label: t.kind.String()})
	m.commit(p, t)
	p.pendingTx = p.pendingTx[1:]
	if len(p.pendingTx) > 0 {
		// Chain continues (write-back then fill): re-request.
		m.waitingCount++
		m.proto.OnRequest(p.ID, m.sched.Now())
		m.emit(obs.Event{Time: m.sched.Now(), Kind: obs.RequestIssued, Agent: p.ID})
	} else {
		// Reference finished; processor resumes computing.
		m.scheduleRef(p)
	}
	switch {
	case m.pendingWin != 0:
		m.startTx(m.pendingWin)
	case m.arbitrating:
		// in-flight arbitration will grant
	case m.waitingCount > 0:
		m.beginArbitration()
	}
}

// commit applies a transaction's coherence actions at its completion —
// the moment all snoopers observe it.
func (m *machine) commit(p *Proc, t tx) {
	c := p.cache
	switch t.kind {
	case BusWB:
		// Invalidate the victim locally; memory is now current.
		if w := c.lookup(t.block); w >= 0 {
			c.lines[c.set(t.block)][w].state = Invalid
		}
		p.Stats.Writebacks++
	case BusRd, BusRdX:
		// Other caches snoop: M/E holders surrender (flush implied and
		// real buses assert a "shared" line the filler observes);
		// BusRdX invalidates every other copy.
		sharedSeen := false
		for id := 1; id < len(m.procs); id++ {
			if id == p.ID {
				continue
			}
			o := m.procs[id]
			if w := o.cache.lookup(t.block); w >= 0 {
				sharedSeen = true
				ol := &o.cache.lines[o.cache.set(t.block)][w]
				if t.kind == BusRdX {
					ol.state = Invalid
					o.Stats.InvalidationsRecv++
					o.invalidated[t.block] = true
					m.emit(obs.Event{Time: m.sched.Now(), Kind: obs.Invalidation,
						Agent: id, Aux: int64(t.block)})
				} else if ol.state == Modified || ol.state == Exclusive {
					ol.state = Shared
				}
			}
		}
		// Fill locally.
		w := c.victim(t.block)
		l := &c.lines[c.set(t.block)][w]
		if m.cfg.CheckInvariants && l.state == Modified {
			panic("snoop: filling over a Modified victim without write-back")
		}
		l.tag = t.block
		c.touch(t.block, w)
		if t.kind == BusRdX {
			l.state = Modified
			m.versions[t.block]++
			l.version = m.versions[t.block]
		} else {
			l.state = Shared
			if m.cfg.Exclusive && !sharedSeen {
				l.state = Exclusive
			}
			l.version = m.versions[t.block]
		}
	case BusUpgr:
		for id := 1; id < len(m.procs); id++ {
			if id == p.ID {
				continue
			}
			o := m.procs[id]
			if w := o.cache.lookup(t.block); w >= 0 {
				o.cache.lines[o.cache.set(t.block)][w].state = Invalid
				o.Stats.InvalidationsRecv++
				o.invalidated[t.block] = true
				m.emit(obs.Event{Time: m.sched.Now(), Kind: obs.Invalidation,
					Agent: id, Aux: int64(t.block)})
			}
		}
		w := c.lookup(t.block)
		if w < 0 {
			// The copy was invalidated while waiting for the upgrade:
			// in real MSI the upgrade converts to a BusRdX; model that
			// by filling here (same bus cost already paid plus this
			// corner is rare).
			w = c.victim(t.block)
			c.lines[c.set(t.block)][w].tag = t.block
		}
		l := &c.lines[c.set(t.block)][w]
		l.state = Modified
		c.touch(t.block, w)
		m.versions[t.block]++
		l.version = m.versions[t.block]
		p.Stats.Upgrades++
	}
	if m.cfg.CheckInvariants {
		m.checkSingleWriter(t.block)
	}
}

// checkSingleWriter asserts the coherence invariant: at most one
// exclusive-class (Modified or Exclusive) copy, and no Shared copy
// coexists with one.
func (m *machine) checkSingleWriter(block uint64) {
	exclusive, shared := 0, 0
	for id := 1; id < len(m.procs); id++ {
		c := m.procs[id].cache
		if w := c.lookup(block); w >= 0 {
			switch c.lines[c.set(block)][w].state {
			case Modified, Exclusive:
				exclusive++
			case Shared:
				shared++
			}
		}
	}
	if exclusive > 1 || (exclusive == 1 && shared > 0) {
		panic(fmt.Sprintf("snoop: coherence invariant violated on block %d: %dM/E %dS", block, exclusive, shared))
	}
}
