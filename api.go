package busarb

import (
	"fmt"
	"io"
	"time"

	"busarb/client"
	"busarb/internal/bitarb"
	"busarb/internal/bussim"
	"busarb/internal/core"
	"busarb/internal/cyclesim"
	"busarb/internal/dist"
	"busarb/internal/experiment"
	"busarb/internal/membus"
	"busarb/internal/mp"
	"busarb/internal/obs"
	"busarb/internal/snoop"
	"busarb/internal/stats"
	"busarb/internal/workload"
)

// Core types, re-exported so downstream users never import internal
// packages directly.
type (
	// Protocol is an arbitration protocol instance (see NewProtocol).
	Protocol = core.Protocol
	// Factory builds a Protocol for an n-agent bus.
	Factory = core.Factory
	// Outcome is one arbitration result.
	Outcome = core.Outcome
	// Waiting is the request-line bitmap Protocol.Arbitrate resolves
	// over: one bit per agent identity 1..N (see NewWaiting).
	Waiting = bitarb.Vec
	// SimConfig configures a bus simulation run (§4.1 model).
	SimConfig = bussim.Config
	// Result carries a simulation run's measurements.
	Result = bussim.Result
	// Estimate is a batch-means point estimate with a 90% CI.
	Estimate = stats.Estimate
	// Sampler draws interrequest times.
	Sampler = dist.Sampler
	// Scenario is a named agent population.
	Scenario = workload.Scenario
	// ExperimentOpts controls the statistical effort of table/figure
	// reproduction runs.
	ExperimentOpts = experiment.Opts
)

// Observability layer (internal/obs): a probe receives the simulators'
// event streams; consumers turn them into traces and windowed metrics.
// Every simulator Config has an Observer field accepting a Probe; a nil
// Observer costs nothing.
type (
	// Probe receives simulation events.
	Probe = obs.Probe
	// Event is one simulation event.
	Event = obs.Event
	// EventKind discriminates Event values.
	EventKind = obs.Kind
	// MultiProbe fans one event stream out to several probes.
	MultiProbe = obs.Multi
	// EventFilter forwards only selected event kinds.
	EventFilter = obs.Filter
	// EventBuffer is a probe that records events in memory.
	EventBuffer = obs.Buffer
	// EventCounter counts events by kind.
	EventCounter = obs.Counter
	// JSONLWriter streams events as JSON Lines (the trace format).
	JSONLWriter = obs.JSONLWriter
	// TextTraceWriter streams events as human-readable text.
	TextTraceWriter = obs.TextWriter
	// Metrics aggregates events into windowed per-agent metrics.
	Metrics = obs.Metrics
	// MetricsWindow is one time slice of a Metrics collection.
	MetricsWindow = obs.Window
	// Summary is the cross-simulator headline result.
	Summary = obs.Summary
)

// The event kinds.
const (
	RequestIssued      = obs.RequestIssued
	ArbitrationStart   = obs.ArbitrationStart
	ArbitrationResolve = obs.ArbitrationResolve
	Repass             = obs.Repass
	ServiceStart       = obs.ServiceStart
	ServiceEnd         = obs.ServiceEnd
	CacheMiss          = obs.CacheMiss
	Invalidation       = obs.Invalidation
	BankConflict       = obs.BankConflict
)

// NewMetrics builds a windowed metrics collector (see Metrics).
func NewMetrics(width float64) *Metrics { return obs.NewMetrics(width) }

// ReadTrace decodes a JSONL trace back into events, inverting
// JSONLWriter.
func ReadTrace(r io.Reader) ([]Event, error) { return obs.ReadJSONL(r) }

// RunConfig is implemented by every simulator configuration: SimConfig,
// MachineConfig, CoherentConfig, MemBusConfig, and CycleConfig. All of
// them share the Protocol / Seed / Observer / Horizon field vocabulary.
type RunConfig interface {
	// Validate reports a configuration error without running anything.
	Validate() error
}

// Report is the cross-simulator result surface: every simulator's
// result type can summarize itself. Type-assert to the concrete result
// (*Result, *MachineResult, *CoherentResult, *MemBusResult,
// *CycleResult) for the simulator-specific measurements.
type Report interface {
	Summary() obs.Summary
}

// Run is the unified entry point: it validates cfg, dispatches to the
// simulator the config type belongs to, and returns its result. The
// per-simulator entry points (Simulate, RunMachine, RunCoherent,
// RunMemBus, RunCycle) remain for code that wants the concrete result
// type without an assertion.
func Run(cfg RunConfig) (Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch c := cfg.(type) {
	case SimConfig:
		return bussim.Run(c), nil
	case MachineConfig:
		return mp.Run(c), nil
	case CoherentConfig:
		return snoop.Run(c), nil
	case MemBusConfig:
		return membus.Run(c), nil
	case CycleConfig:
		return cyclesim.Run(c), nil
	}
	return nil, fmt.Errorf("busarb: unsupported configuration type %T", cfg)
}

// Protocols returns the registered protocol names, sorted.
func Protocols() []string { return core.Names() }

// NewWaiting returns an empty request-line bitmap for an n-agent bus:
// Set an agent's line when it requests, Clear it when it is granted,
// and hand the bitmap to Protocol.Arbitrate.
func NewWaiting(n int) *Waiting { return bitarb.NewVec(n) }

// NewProtocol builds the named protocol for an n-agent bus. Names are
// those of the paper: "RR1", "RR2", "RR3" (the three round-robin
// implementations of §3.1), "FCFS1", "FCFS2" (the two counter-update
// strategies of §3.2), "Hybrid" (§5), and the baselines "FP", "AAP1",
// "AAP2".
func NewProtocol(name string, n int) (Protocol, error) {
	f, err := core.ByName(name)
	if err != nil {
		return nil, err
	}
	return f(n), nil
}

// NewProtocolFactory returns the Factory for name, for wiring literal
// protocol names into a Config's Protocol field.
func NewProtocolFactory(name string) (Factory, error) {
	return core.ByName(name)
}

// MustProtocol returns the Factory for name, panicking on unknown names.
// Use it for literal protocol names in configuration.
func MustProtocol(name string) Factory {
	f, err := core.ByName(name)
	if err != nil {
		panic(err)
	}
	return f
}

// Simulate runs the §4.1 bus simulation and returns its measurements.
func Simulate(cfg SimConfig) *Result { return bussim.Run(cfg) }

// EqualWorkload builds n identical agents offering totalLoad in
// aggregate with interrequest coefficient of variation cv (§4.2).
func EqualWorkload(n int, totalLoad, cv float64) Scenario {
	return workload.Equal(n, totalLoad, cv)
}

// ScaledWorkload builds the §4.4 population: agent 1 requests at factor
// times the rate of the n-1 identical others.
func ScaledWorkload(n int, baseLoad, factor, cv float64) Scenario {
	return workload.OneScaled(n, baseLoad, factor, cv)
}

// WorstCaseWorkload builds the §4.5 "just miss" population for RR.
func WorstCaseWorkload(n int, cv float64) Scenario {
	return workload.WorstCaseRR(n, cv)
}

// PriorityWorkload builds n equal agents whose requests are urgent with
// the given probability; pair it with a priority-capable protocol from
// NewPriorityProtocol.
func PriorityWorkload(n int, totalLoad, cv, urgentProb float64) Scenario {
	return workload.PriorityMix(n, totalLoad, cv, urgentProb)
}

// NewPriorityProtocol builds the priority-integrated variants of §2.4,
// §3.1 and §3.2, the registered protocols that take a request class.
// Names: "RR1+prio" (urgent requests ignore the RR protocol),
// "RR1+prio/rr" (round-robin within the urgent class),
// "FCFS1+prio/overflow", "FCFS1+prio/matched", "FCFS2+prio". These are
// also available through NewProtocol.
func NewPriorityProtocol(name string, n int) (Protocol, error) {
	if f, ok := core.Registry[name]; ok {
		if p, ok := f(n).(core.ClassRequester); ok {
			return p, nil
		}
	}
	return nil, fmt.Errorf("busarb: unknown priority protocol %q", name)
}

// NewMultiFCFS builds the §3.2 extension serving up to r outstanding
// requests per agent in global FCFS order.
func NewMultiFCFS(n, r int) Protocol { return core.NewMultiFCFS(n, r) }

// Experiment re-exports: each function regenerates one of the paper's
// tables or figures; see EXPERIMENTS.md for the recorded outputs.

// Table41 reproduces Table 4.1 (bandwidth allocation among equal
// agents) for n agents; includeAAP adds the assured-access column shown
// for 30 agents.
func Table41(n int, includeAAP bool, o ExperimentOpts) []experiment.Table41Row {
	return experiment.Table41(n, includeAAP, o)
}

// Table42 reproduces Table 4.2 (waiting-time standard deviation).
func Table42(n int, o ExperimentOpts) []experiment.Table42Row {
	return experiment.Table42(n, o)
}

// Figure41 reproduces Figure 4.1 (waiting-time CDFs, RR vs FCFS).
func Figure41(n int, load float64, o ExperimentOpts) experiment.Figure41Result {
	return experiment.Figure41(n, load, o)
}

// Table43 reproduces Table 4.3 (execution overlapped with waiting).
func Table43(n int, o ExperimentOpts) []experiment.Table43Row {
	return experiment.Table43(n, o)
}

// Table44 reproduces Table 4.4 (one agent at factor× request rate).
func Table44(n int, factor float64, o ExperimentOpts) []experiment.Table44Row {
	return experiment.Table44(n, factor, o)
}

// Table45 reproduces Table 4.5 (worst-case RR allocation vs CV).
func Table45(n int, o ExperimentOpts) []experiment.Table45Row {
	return experiment.Table45(n, o)
}

// Multiprocessor substrate (internal/mp): processors with private
// caches whose misses become the arbitrated bus traffic — the workload
// the paper's introduction motivates.
type (
	// Cache is a set-associative write-back LRU cache.
	Cache = mp.Cache
	// Processor couples a cache and a reference pattern into a bus
	// traffic source.
	Processor = mp.Processor
	// Pattern generates synthetic memory-reference streams.
	Pattern = mp.Pattern
	// SequentialPattern streams through memory with a fixed stride.
	SequentialPattern = mp.Sequential
	// WorkingSetPattern references a fixed region uniformly.
	WorkingSetPattern = mp.WorkingSet
	// HotColdPattern mixes a hit-prone hot region with a cold one.
	HotColdPattern = mp.HotCold
	// MachineConfig assembles processors and a protocol into a machine.
	MachineConfig = mp.MachineConfig
	// MachineResult reports bus- and application-level measurements.
	MachineResult = mp.MachineResult
)

// NewCache builds a set-associative write-back cache.
func NewCache(sizeBytes, blockBytes, ways int) *Cache {
	return mp.NewCache(sizeBytes, blockBytes, ways)
}

// RunMachine simulates a shared-bus multiprocessor.
func RunMachine(cfg MachineConfig) *MachineResult { return mp.Run(cfg) }

// Snooping-coherent machine (internal/snoop): MSI caches whose misses,
// upgrades and write-backs are the arbitrated bus traffic, with
// invalidations delivered when transactions commit.
type (
	// CoherentProc is one processor of the snooping machine.
	CoherentProc = snoop.Proc
	// CoherentConfig assembles the snooping machine.
	CoherentConfig = snoop.Config
	// CoherentResult reports its measurements.
	CoherentResult = snoop.Result
	// TxKind is a coherence bus-transaction type.
	TxKind = snoop.TxKind
)

// The coherence transaction kinds.
const (
	BusRd   = snoop.BusRd
	BusRdX  = snoop.BusRdX
	BusUpgr = snoop.BusUpgr
	BusWB   = snoop.BusWB
)

// RunCoherent simulates the snooping-coherent multiprocessor.
func RunCoherent(cfg CoherentConfig) *CoherentResult { return snoop.Run(cfg) }

// Memory bus (internal/membus): banked memory behind connected or
// split-transaction block transfers, with the memory controller as an
// arbitrated bus agent.
type (
	// MemBusConfig assembles the memory-bus machine.
	MemBusConfig = membus.Config
	// MemBusResult reports its measurements.
	MemBusResult = membus.Result
	// MemBusMode selects connected or split transfers.
	MemBusMode = membus.Mode
)

// The memory-bus disciplines.
const (
	Connected = membus.Connected
	Split     = membus.Split
)

// RunMemBus simulates the memory-bus machine.
func RunMemBus(cfg MemBusConfig) *MemBusResult { return membus.Run(cfg) }

// Cycle-level bus (internal/cyclesim): the wired-OR hardware model.
type (
	// CycleConfig drives the cycle-level bus under Bernoulli arrivals.
	CycleConfig = cyclesim.Config
	// CycleResult reports a cycle-level run's measurements.
	CycleResult = cyclesim.RunResult
	// CycleKind selects a line-level protocol implementation.
	CycleKind = cyclesim.Kind
)

// RunCycle simulates the cycle-level bus.
func RunCycle(cfg CycleConfig) *CycleResult { return cyclesim.Run(cfg) }

// LineLevelProtocol maps a protocol name to its line-level Kind. All
// eight non-hybrid protocols have one: FP, RR1, RR2, RR3, FCFS1,
// FCFS2, AAP1, AAP2. The error enumerates the supported names.
func LineLevelProtocol(name string) (CycleKind, error) {
	return cyclesim.KindByName(name)
}

// LineLevelBus builds the cycle-accurate wired-OR bus model for the
// given protocol name (see LineLevelProtocol for the supported set),
// the hardware-shaped counterpart of the abstract protocols.
func LineLevelBus(name string, n int) (*cyclesim.Bus, error) {
	k, err := cyclesim.KindByName(name)
	if err != nil {
		return nil, err
	}
	return cyclesim.New(k, n), nil
}

// Serving layer (busarb/client): the transport-agnostic client for an
// arbd arbitration daemon. Re-exported here so programs embedding the
// simulators and talking to a live daemon need only this package; the
// client package remains importable directly.
type (
	// Client talks to one arbd daemon over the transport its Dial
	// target selects.
	Client = client.Client
	// Lease is a granted resource tenure on a daemon.
	Lease = client.Lease
	// AcquireOptions tunes one Client.Acquire.
	AcquireOptions = client.AcquireOptions
	// DialOption adjusts Dial.
	DialOption = client.Option
)

// The client error taxonomy's sentinels; match with errors.Is.
var (
	// ErrDeadline reports an acquire not granted in time (408).
	ErrDeadline = client.ErrDeadline
	// ErrOverload reports daemon backpressure (503).
	ErrOverload = client.ErrOverload
	// ErrClosed reports use of a closed Client.
	ErrClosed = client.ErrClosed
)

// Dial connects to an arbd daemon; the target's scheme selects the
// transport (http://, https://, or tcp:// for the binary protocol).
func Dial(target string, opts ...DialOption) (*Client, error) {
	return client.Dial(target, opts...)
}

// WithDialTimeout bounds the binary transport's connection attempts.
func WithDialTimeout(d time.Duration) DialOption {
	return client.WithDialTimeout(d)
}
