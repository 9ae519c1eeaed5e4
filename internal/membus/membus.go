// Package membus models the memory side of the multiprocessor bus: the
// block transfers the paper's §4.1 abstracts as a fixed transaction
// time are address + memory-access + data-burst sequences against
// banked memory. Two bus disciplines of the paper's era are provided:
//
//   - Connected: the master holds the bus through the entire sequence
//     (address cycles, memory latency, data burst) — NuBus/Multibus
//     style. Bus service time = A + M + D, and memory latency is dead
//     time on the bus.
//   - Split: the master releases the bus after the address cycles; the
//     memory controller becomes a bus agent itself and arbitrates to
//     return the data burst when the bank finishes — Fastbus/Futurebus
//     style. The bus carries A + D per transfer and memory latency
//     overlaps other traffic, at the cost of a second arbitration.
//
// Every bus tenure — processors' requests and the memory controller's
// responses alike — is granted by one of the paper's arbitration
// protocols; the memory controller competes with identity N+1 (the
// highest, as such controllers typically did).
package membus

import (
	"fmt"
	"math"

	"busarb/internal/bitarb"
	"busarb/internal/core"
	"busarb/internal/dist"
	"busarb/internal/obs"
	"busarb/internal/rng"
	"busarb/internal/sim"
	"busarb/internal/stats"
)

// Mode selects the bus discipline.
type Mode int

// The bus disciplines.
const (
	// Connected holds the bus through the memory access.
	Connected Mode = iota
	// Split releases the bus during the memory access; responses are
	// separate arbitrated transfers by the memory controller.
	Split
)

// String names the mode.
func (m Mode) String() string {
	if m == Split {
		return "split"
	}
	return "connected"
}

// Config describes a memory-bus simulation.
type Config struct {
	// N is the number of processors (bus identities 1..N; the memory
	// controller takes N+1 in split mode).
	N int
	// Banks is the number of interleaved memory banks (>= 1). A block's
	// bank is chosen uniformly per request.
	Banks int
	// Protocol arbitrates the bus.
	Protocol core.Factory
	// Mode selects connected or split transfers.
	Mode Mode
	// AddrTime, MemTime, DataTime are the phase durations; zero values
	// default to 0.25, 1.5, 0.75 (a slow-memory configuration where the
	// disciplines differ visibly).
	AddrTime float64
	MemTime  float64
	DataTime float64
	// Inter is each processor's think-time distribution.
	Inter []dist.Sampler
	// Seed, Batches, BatchSize configure measurement (defaults 10x2000;
	// a batch counts completed block transfers).
	Seed      uint64
	Batches   int
	BatchSize int
	// Observer, if non-nil, receives the simulation's event stream,
	// including BankConflict whenever a transfer finds its bank still
	// busy with an earlier access.
	Observer obs.Probe
	// Horizon, when positive, ends the run once the simulated clock
	// reaches it, even if the completion target has not been met. Zero
	// means run to the completion target.
	Horizon float64
}

// Validate checks the configuration without running it; Run panics on
// exactly these errors.
func (cfg Config) Validate() error {
	if cfg.N < 2 {
		return fmt.Errorf("membus: need at least two processors, got %d", cfg.N)
	}
	if cfg.Banks < 1 {
		return fmt.Errorf("membus: need at least one bank, got %d", cfg.Banks)
	}
	if cfg.Protocol == nil {
		return fmt.Errorf("membus: Protocol factory is required")
	}
	if len(cfg.Inter) != cfg.N {
		return fmt.Errorf("membus: len(Inter)=%d, want %d", len(cfg.Inter), cfg.N)
	}
	if cfg.AddrTime < 0 || cfg.MemTime < 0 || cfg.DataTime < 0 {
		return fmt.Errorf("membus: phase times must be positive")
	}
	if cfg.Horizon < 0 {
		return fmt.Errorf("membus: negative Horizon %v", cfg.Horizon)
	}
	return nil
}

// Result reports the run's measurements.
type Result struct {
	Mode        Mode
	Protocol    string
	N           int
	Completions int64
	Elapsed     float64
	// Latency is the batch-means estimate of the full transfer latency:
	// request generation to data received.
	Latency stats.Estimate
	// Throughput is completed transfers per unit time.
	Throughput stats.Estimate
	// BusUtilization is the fraction of time the bus is held.
	BusUtilization stats.Estimate
	// BankUtilization is the mean fraction of time banks are busy.
	BankUtilization stats.Estimate
	// RespArbitrations counts the split-mode response tenures.
	RespArbitrations int64
}

// Summary implements the cross-simulator Report surface.
func (r *Result) Summary() obs.Summary {
	return obs.Summary{
		Simulator:   "membus",
		Protocol:    r.Protocol,
		N:           r.N,
		Time:        r.Elapsed,
		Grants:      r.Completions + r.RespArbitrations,
		Utilization: r.BusUtilization.Mean,
	}
}

type pendingResp struct {
	proc    int
	genTime float64
	readyAt float64
}

// The machine's event kinds. The bus carries one tenure at a time and
// one arbitration is in flight at a time, so an event's argument (a
// processor, where it names one) and the tenure fields of machine are
// all the state it needs. That makes evResolve, the three tenure ends
// and evHorizon solo (sim.Scheduler.Solo): each skips the heap, and a
// second one pending would panic. evResponseReady is not solo: every
// bank can have an access finishing.
const (
	evGenerate      sim.Kind = iota // arg's think time ends
	evResolve                       // the arbitration in flight settles
	evRequestEnd                    // connected: arg's whole tenure ends
	evAddressEnd                    // split: arg's address cycles end
	evResponseReady                 // a bank finishes a split access
	evResponseEnd                   // split: the response burst ends
	evHorizon                       // Config.Horizon: measurement ends
)

type machine struct {
	cfg   Config
	sched sim.Scheduler
	proto core.Protocol
	memID int

	// Per-agent state. lines holds the request lines (an outstanding
	// request not yet granted the bus); snap is the copy the
	// arbitration in flight resolves over (one at a time: arbitrating
	// guards).
	lines, snap bitarb.Vec
	genTime     []float64
	srcs        []rng.Source

	// The tenure in flight: a split-mode address tenure's bank, and the
	// request it carries or the response it delivers.
	tenureBank int
	tenure     pendingResp

	// Memory controller state (split mode).
	respQueue []pendingResp
	respReady int // responses whose bank has finished

	// Bank state.
	bankFreeAt []float64

	busBusy     bool
	arbitrating bool
	pendingWin  int

	// Measurement.
	target      int64
	batchSize   int64
	warmupLeft  int64
	completions int64
	startTime   float64
	batchStart  float64
	busBusyAcc  float64
	bankBusyAcc float64
	batchLat    stats.Running
	latBatches  []float64
	cntBatches  []float64
	busBatches  []float64
	bankBatches []float64
	done        bool
	res         *Result
}

// Run executes the simulation.
func Run(cfg Config) *Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.AddrTime == 0 {
		cfg.AddrTime = 0.25
	}
	if cfg.MemTime == 0 {
		cfg.MemTime = 1.5
	}
	if cfg.DataTime == 0 {
		cfg.DataTime = 0.75
	}
	if cfg.AddrTime <= 0 || cfg.MemTime <= 0 || cfg.DataTime <= 0 {
		panic("membus: phase times must be positive")
	}
	if cfg.Batches == 0 {
		cfg.Batches = 10
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 2000
	}

	nAgents := cfg.N
	if cfg.Mode == Split {
		nAgents = cfg.N + 1 // the memory controller
	}
	m := &machine{
		cfg:        cfg,
		proto:      cfg.Protocol(nAgents),
		memID:      cfg.N + 1,
		genTime:    make([]float64, cfg.N+2),
		srcs:       make([]rng.Source, cfg.N+2),
		bankFreeAt: make([]float64, cfg.Banks),
		target:     int64(cfg.Batches) * int64(cfg.BatchSize),
		batchSize:  int64(cfg.BatchSize),
		warmupLeft: int64(cfg.BatchSize),
		res:        &Result{Mode: cfg.Mode, N: cfg.N},
	}
	bitarb.InitVecs(nAgents, &m.lines, &m.snap)
	m.res.Protocol = m.proto.Name()
	m.sched.Solo(evResolve, evRequestEnd, evAddressEnd, evResponseEnd, evHorizon)
	master := rng.New(cfg.Seed)
	for id := 1; id <= cfg.N; id++ {
		master.SplitInto(&m.srcs[id])
		m.scheduleThink(id)
	}
	master.SplitInto(&m.srcs[m.memID])
	if cfg.Horizon > 0 {
		m.sched.At(cfg.Horizon, evHorizon, 0)
	}
	for !m.done {
		kind, id, ok := m.sched.Next(math.Inf(1))
		if !ok {
			break
		}
		switch kind {
		case evGenerate:
			m.generate(id)
		case evResolve:
			m.resolve()
		case evRequestEnd:
			m.endRequest(id)
		case evAddressEnd:
			m.endAddress(id)
		case evResponseReady:
			m.responseReady()
		case evResponseEnd:
			m.endResponse()
		case evHorizon:
			m.done = true
		}
	}
	m.finish()
	return m.res
}

// emit forwards an event to the configured observer, if any.
func (m *machine) emit(e obs.Event) {
	if m.cfg.Observer != nil {
		m.cfg.Observer.OnEvent(e)
	}
}

func (m *machine) scheduleThink(id int) {
	d := m.cfg.Inter[id-1].Sample(&m.srcs[id])
	m.sched.After(d, evGenerate, id)
}

func (m *machine) generate(id int) {
	m.lines.Set(id)
	m.genTime[id] = m.sched.Now()
	m.proto.OnRequest(id, m.sched.Now())
	m.emit(obs.Event{Time: m.sched.Now(), Kind: obs.RequestIssued, Agent: id})
	m.maybeArbitrate()
}

func (m *machine) maybeArbitrate() {
	if m.arbitrating || m.pendingWin != 0 {
		return
	}
	if !m.lines.Any() {
		return
	}
	m.arbitrating = true
	m.snap.CopyFrom(&m.lines)
	if m.cfg.Observer != nil {
		m.emit(obs.Event{Time: m.sched.Now(), Kind: obs.ArbitrationStart,
			Agents: m.snap.AppendIDs(make([]int, 0, m.snap.Count()))})
	}
	// Arbitration overhead: half an address cycle, overlapped with any
	// current tenure (the §4.1 structure scaled to this bus).
	m.sched.After(m.cfg.AddrTime/2, evResolve, 0)
}

func (m *machine) resolve() {
	out := m.proto.Arbitrate(&m.snap)
	if out.Repass {
		m.emit(obs.Event{Time: m.sched.Now(), Kind: obs.Repass})
		m.snap.CopyFrom(&m.lines)
		m.sched.After(m.cfg.AddrTime/2, evResolve, 0)
		return
	}
	m.arbitrating = false
	m.emit(obs.Event{Time: m.sched.Now(), Kind: obs.ArbitrationResolve, Agent: out.Winner})
	if m.busBusy {
		m.pendingWin = out.Winner
	} else {
		m.grant(out.Winner)
	}
}

func (m *machine) grant(id int) {
	m.pendingWin = 0
	m.lines.Clear(id)
	m.busBusy = true
	m.proto.OnServiceStart(id, m.sched.Now())
	if id == m.memID {
		m.emit(obs.Event{Time: m.sched.Now(), Kind: obs.ServiceStart, Agent: id, Label: "response"})
		m.startResponse()
	} else {
		m.emit(obs.Event{Time: m.sched.Now(), Kind: obs.ServiceStart, Agent: id})
		m.startRequest(id)
	}
	// Overlap the next arbitration with this tenure.
	m.maybeArbitrate()
}

// startRequest runs a processor's tenure.
func (m *machine) startRequest(id int) {
	now := m.sched.Now()
	bank := m.srcs[id].Intn(m.cfg.Banks)
	switch m.cfg.Mode {
	case Connected:
		// Hold the bus: address + wait for bank + access + data.
		start := now + m.cfg.AddrTime
		if m.bankFreeAt[bank] > start {
			start = m.bankFreeAt[bank]
			m.emit(obs.Event{Time: now, Kind: obs.BankConflict, Agent: id, Aux: int64(bank)})
		}
		doneMem := start + m.cfg.MemTime
		m.bankBusyAcc += m.cfg.MemTime
		m.bankFreeAt[bank] = doneMem
		end := doneMem + m.cfg.DataTime
		m.busBusyAcc += end - now
		m.sched.At(end, evRequestEnd, id)
	case Split:
		// Address cycles only; the bank then works off-bus and the
		// response queues at the memory controller.
		end := now + m.cfg.AddrTime
		m.busBusyAcc += m.cfg.AddrTime
		m.tenureBank, m.tenure = bank, pendingResp{proc: id, genTime: m.genTime[id]}
		m.sched.At(end, evAddressEnd, id)
	}
}

// endRequest ends a connected-mode tenure: the data is back.
func (m *machine) endRequest(id int) {
	m.busBusy = false
	m.emit(obs.Event{Time: m.sched.Now(), Kind: obs.ServiceEnd, Agent: id})
	m.complete(id, m.genTime[id])
	m.scheduleThink(id)
	m.afterTenure()
}

// endAddress ends a split-mode address tenure: the bank starts the
// access off-bus and the response will queue at the controller.
func (m *machine) endAddress(id int) {
	bank := m.tenureBank
	m.busBusy = false
	m.emit(obs.Event{Time: m.sched.Now(), Kind: obs.ServiceEnd, Agent: id})
	start := m.sched.Now()
	if m.bankFreeAt[bank] > start {
		start = m.bankFreeAt[bank]
		m.emit(obs.Event{Time: m.sched.Now(), Kind: obs.BankConflict, Agent: id, Aux: int64(bank)})
	}
	ready := start + m.cfg.MemTime
	m.bankBusyAcc += m.cfg.MemTime
	m.bankFreeAt[bank] = ready
	m.respQueue = append(m.respQueue, pendingResp{proc: id, genTime: m.tenure.genTime, readyAt: ready})
	m.sched.At(ready, evResponseReady, 0)
	m.afterTenure()
}

// responseReady marks one queued response as deliverable; the memory
// controller asserts the bus request line if it wasn't already.
func (m *machine) responseReady() {
	m.respReady++
	if !m.lines.Test(m.memID) {
		m.lines.Set(m.memID)
		m.proto.OnRequest(m.memID, m.sched.Now())
		m.emit(obs.Event{Time: m.sched.Now(), Kind: obs.RequestIssued, Agent: m.memID})
		m.maybeArbitrate()
	}
}

// startResponse runs the memory controller's tenure: the oldest ready
// response's data burst.
func (m *machine) startResponse() {
	if m.respReady == 0 {
		panic("membus: memory controller granted with no ready response")
	}
	// Oldest ready response (FIFO by readiness).
	idx := -1
	for i := range m.respQueue {
		if m.respQueue[i].readyAt <= m.sched.Now()+1e-9 {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic("membus: ready counter out of sync")
	}
	m.tenure = m.respQueue[idx]
	m.respQueue = append(m.respQueue[:idx], m.respQueue[idx+1:]...)
	m.respReady--
	m.res.RespArbitrations++
	end := m.sched.Now() + m.cfg.DataTime
	m.busBusyAcc += m.cfg.DataTime
	m.sched.At(end, evResponseEnd, 0)
}

// endResponse ends the memory controller's tenure: the response is
// delivered.
func (m *machine) endResponse() {
	resp := m.tenure
	m.busBusy = false
	m.emit(obs.Event{Time: m.sched.Now(), Kind: obs.ServiceEnd, Agent: m.memID,
		Aux: int64(resp.proc), Label: "response"})
	m.complete(resp.proc, resp.genTime)
	m.scheduleThink(resp.proc)
	// More ready responses: re-assert immediately.
	if m.respReady > 0 {
		m.lines.Set(m.memID)
		m.proto.OnRequest(m.memID, m.sched.Now())
		m.emit(obs.Event{Time: m.sched.Now(), Kind: obs.RequestIssued, Agent: m.memID})
	}
	m.afterTenure()
}

func (m *machine) afterTenure() {
	if m.done {
		return
	}
	if m.pendingWin != 0 {
		m.grant(m.pendingWin)
		return
	}
	if !m.arbitrating {
		m.maybeArbitrate()
	}
}

func (m *machine) complete(proc int, gen float64) {
	lat := m.sched.Now() - gen
	if m.warmupLeft > 0 {
		m.warmupLeft--
		if m.warmupLeft == 0 {
			m.startTime = m.sched.Now()
			m.batchStart = m.sched.Now()
			m.busBusyAcc = 0
			m.bankBusyAcc = 0
		}
		return
	}
	if m.completions >= m.target {
		return
	}
	m.completions++
	m.batchLat.Add(lat)
	if m.completions%m.batchSize == 0 {
		m.closeBatch()
	}
	if m.completions >= m.target {
		m.done = true
	}
}

func (m *machine) closeBatch() {
	now := m.sched.Now()
	dur := now - m.batchStart
	if dur <= 0 {
		dur = 1e-12
	}
	m.latBatches = append(m.latBatches, m.batchLat.Mean())
	m.cntBatches = append(m.cntBatches, float64(m.batchSize)/dur)
	m.busBatches = append(m.busBatches, m.busBusyAcc/dur)
	m.bankBatches = append(m.bankBatches, m.bankBusyAcc/(dur*float64(m.cfg.Banks)))
	m.batchLat.Reset()
	m.busBusyAcc = 0
	m.bankBusyAcc = 0
	m.batchStart = now
}

func (m *machine) finish() {
	m.res.Completions = m.completions
	m.res.Elapsed = m.sched.Now() - m.startTime
	m.res.Latency = stats.BatchMeans(m.latBatches)
	m.res.Throughput = stats.BatchMeans(m.cntBatches)
	m.res.BusUtilization = stats.BatchMeans(m.busBatches)
	m.res.BankUtilization = stats.BatchMeans(m.bankBatches)
}
