// Package bussim is the queueing-level simulator of a multiprocessor bus
// under the paper's §4.1 assumptions:
//
//   - Bus transaction (service) times are deterministic and define the
//     time unit (S = 1.0): cache-block or I/O-block transfers.
//   - Arbitration overhead is 0.5 time units and is fully overlapped
//     with bus service whenever requests are waiting: arbitration for
//     the next master starts at the beginning of a bus transaction if
//     requests are waiting then, and the winner takes over at the end of
//     the transaction. An arbitration on an otherwise idle bus exposes
//     its full 0.5 delay.
//   - Each agent has one outstanding request at a time; after its
//     transaction completes it "thinks" for a sampled interrequest time
//     and then asserts the shared bus request line.
//   - Output analysis uses the method of batch means (package stats):
//     a discarded warm-up period, then B batches of a fixed number of
//     request completions each.
//
// The "waiting time" reported throughout the paper's tables is the full
// residence time of a request — from generation to transaction
// completion — which reproduces W ≈ 1.5 at low load (exposed arbitration
// plus service) and W ≈ N at saturation.
package bussim

import (
	"fmt"
	"math"

	"busarb/internal/busctl"
	"busarb/internal/core"
	"busarb/internal/dist"
	"busarb/internal/obs"
	"busarb/internal/rng"
	"busarb/internal/sim"
	"busarb/internal/stats"
	"busarb/internal/topo"
)

// Config describes one simulation run.
type Config struct {
	// N is the number of agents (identities 1..N).
	N int
	// Protocol builds the arbitration protocol under test. Set exactly
	// one of Protocol and Topology.
	Protocol core.Factory
	// Topology, if non-nil, arbitrates over a tree of clusters instead
	// of one flat bus (topo.Tree drives the same cycle loop through the
	// core.Protocol interface). N must equal Topology.TotalAgents().
	// Tree runs emit one ArbitrationResolve event per level of the
	// winner's path, carrying Level and the per-hop Wait; Window > 1
	// is not supported on trees.
	Topology *topo.Spec
	// Service is the bus transaction time; 0 means the paper's 1.0.
	Service float64
	// ServiceDist, if non-nil, draws each transaction's duration from a
	// distribution instead of the fixed Service (an extension beyond
	// the paper's deterministic transfers; the §4 conservation law
	// still applies because no protocol's order depends on service
	// times). Utilization is then measured as actual busy time.
	ServiceDist dist.Sampler
	// ArbOverhead is the arbitration delay; 0 means the paper's 0.5.
	// (To model a zero-overhead arbiter, use a tiny positive value.)
	ArbOverhead float64
	// Inter holds each agent's interrequest-time distribution,
	// Inter[i] for agent i+1. Use UniformLoad for identical agents.
	// Exactly one of Inter and Sources must be set.
	Inter []dist.Sampler
	// Sources optionally replaces Inter with stateful think-time
	// generators (e.g. the processor/cache models of internal/mp whose
	// time-to-next-request depends on simulated cache contents).
	Sources []ThinkSource
	// UrgentProb, if non-nil, gives each agent's probability that a
	// request is urgent (priority class). Requires a protocol
	// implementing core.ClassRequester to have any effect.
	UrgentProb []float64
	// Seed selects the random streams; runs are reproducible.
	Seed uint64
	// Batches and BatchSize configure the batch-means output analysis;
	// zero values mean the paper's 10 batches of 8000 completions.
	Batches   int
	BatchSize int
	// Warmup is the number of initial completions discarded before
	// measurement; 0 means one batch worth (the sensible default), and
	// a negative value disables the warm-up entirely.
	Warmup int
	// CollectWaits retains every post-warmup residence-time sample in
	// an exact empirical CDF (needed for Figure 4.1 and Table 4.3).
	CollectWaits bool
	// LateJoin is an ablation switch: instead of arbitrating among the
	// requesters present when the arbitration started (the request-line
	// snapshot semantics of the real arbiter), competitors are taken at
	// resolution time, letting requests that arrived during the
	// arbitration delay join it.
	LateJoin bool
	// BoundaryArbOnly restricts arbitration starts to transaction
	// boundaries and idle arrivals, the discipline of synchronous buses
	// (and of the cycle-level model in internal/cyclesim): a request
	// arriving mid-transaction with no arbitration pending waits for
	// the transaction to end and then pays an exposed arbitration.
	BoundaryArbOnly bool
	// Observer, if non-nil, receives every simulation event (request,
	// arbitration start/resolve/repass, service start/end). A nil
	// Observer costs nothing: the hot loops guard every emission with
	// a nil check, so unobserved runs stay allocation-free and
	// bit-identical.
	Observer obs.Probe
	// Horizon, when positive, ends the run once the simulated clock
	// reaches it, even if the batch-means completion target has not
	// been met (partial final batches are discarded). Zero means run
	// to the completion target (the default).
	Horizon float64
	// Window is the per-agent outstanding-request limit (default 1).
	// Values above 1 model processors that pipeline bus requests and
	// require a protocol built for it (core.MultiFCFS, §3.2): an agent
	// keeps generating requests, pausing its interrequest clock while
	// the window is full, and its requests are served oldest-first.
	Window int
}

// ThinkSource generates an agent's successive think times — the delays
// between a transaction completing (or a window slot freeing) and the
// next request. Unlike a plain distribution it may carry state: the
// multiprocessor models in internal/mp simulate cache contents to
// decide when the next miss occurs.
type ThinkSource interface {
	// NextThink returns the next think time (>= 0), drawing any needed
	// randomness from src.
	NextThink(src *rng.Source) float64
	// MeanHint returns an a-priori mean think time if one is known, or
	// 0; used only for reporting.
	MeanHint() float64
}

// UniformLoad returns N identical interrequest samplers such that each
// agent offers load/n, following the paper's definition
// load_i = S / (S + mean interrequest): mean = S*(n/load - 1)... per
// agent: load_i = load/n, mean_i = S*(1-load_i)/load_i.
func UniformLoad(n int, totalLoad, cv, service float64) []dist.Sampler {
	if service <= 0 {
		service = 1
	}
	per := totalLoad / float64(n)
	if per <= 0 || per >= 1 {
		panic(fmt.Sprintf("bussim: per-agent load %v out of (0,1)", per))
	}
	// A sampler is an immutable value, so every agent shares one.
	s := dist.ByCV(service*(1-per)/per, cv)
	out := make([]dist.Sampler, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// MeanForLoad returns the interrequest mean that realizes the given
// per-agent offered load with the given service time.
func MeanForLoad(perAgentLoad, service float64) float64 {
	if perAgentLoad <= 0 || perAgentLoad >= 1 {
		panic(fmt.Sprintf("bussim: per-agent load %v out of (0,1)", perAgentLoad))
	}
	return service * (1 - perAgentLoad) / perAgentLoad
}

// Result carries all measurements from one run.
type Result struct {
	ProtocolName string
	N            int
	Seed         uint64

	// Completions is the number of post-warmup request completions.
	Completions int64
	// Elapsed is the post-warmup measured time span.
	Elapsed float64
	// WallTime is the full simulated time span including warmup (the
	// denominator for whole-run rates such as mp progress counters).
	WallTime float64

	// Throughput is total completions per unit time with its 90% CI
	// (batch means). With S = 1 it equals bus utilization.
	Throughput stats.Estimate
	// Utilization is the fraction of measured time the bus spent
	// serving transactions.
	Utilization stats.Estimate

	// AgentBatches[a][b] is agent (a+1)'s throughput in batch b.
	AgentBatches [][]float64
	// AgentThroughput[a] is agent (a+1)'s mean throughput estimate.
	AgentThroughput []stats.Estimate

	// WaitMean and WaitStdDev are batch-means estimates of the
	// residence time's mean and standard deviation.
	WaitMean   stats.Estimate
	WaitStdDev stats.Estimate
	// WaitPooled aggregates every post-warmup residence sample.
	WaitPooled stats.Running
	// AgentWait[a] pools agent (a+1)'s residence samples.
	AgentWait []stats.Running
	// WaitUrgent and WaitNormal split the residence samples by request
	// class (meaningful when UrgentProb is set).
	WaitUrgent stats.Running
	WaitNormal stats.Running

	// Waits is the exact CDF of residence times (nil unless
	// Config.CollectWaits).
	Waits *stats.ECDF

	// Arbitrations counts resolved arbitrations; Repasses counts RR3
	// empty passes (each charged a full arbitration delay).
	Arbitrations int64
	Repasses     int64
	// ExposedArbs counts arbitrations whose delay was not overlapped
	// with a transaction.
	ExposedArbs int64

	// MeanInter is the configured mean interrequest time of agent 1
	// (handy for productivity computations on uniform workloads).
	MeanInter float64

	// Instance is the protocol instance the run used, for post-run
	// introspection (e.g. PriorityFCFS1.Overflows).
	Instance core.Protocol

	// BatchAutocorr is the lag-1 autocorrelation of the per-batch mean
	// waits: a batch-independence diagnostic for the batch-means method
	// (values near 0 validate the confidence intervals; > ~0.3 warns
	// that batches are too short [Lave83]).
	BatchAutocorr float64
}

// meanInterHint returns agent 1's nominal mean think time, if known.
func meanInterHint(cfg Config) float64 {
	if cfg.Sources != nil {
		return cfg.Sources[0].MeanHint()
	}
	return cfg.Inter[0].Mean()
}

// Summary implements the cross-simulator Report surface of the
// busarb facade.
func (r *Result) Summary() obs.Summary {
	return obs.Summary{
		Simulator:   "bussim",
		Protocol:    r.ProtocolName,
		N:           r.N,
		Time:        r.WallTime,
		Grants:      r.Completions,
		Utilization: r.Utilization.Mean,
	}
}

// ThroughputRatio returns the batch-means estimate of agent a's
// throughput over agent b's (identities 1..N), e.g. highest/lowest for
// Table 4.1.
func (r *Result) ThroughputRatio(a, b int) stats.Estimate {
	return stats.RatioOfBatches(r.AgentBatches[a-1], r.AgentBatches[b-1])
}

// agentState holds no pointers, so the collector never scans the
// agents slab: an agent's think-time sampler is read from Config.Inter
// or Config.Sources by its id.
type agentState struct {
	id         int
	src        rng.Source
	urgentProb float64
	urgent     bool
	// The FIFO of generation times of requests not yet in service: a
	// ring of Window slots in system.genTimes, queued of them in use
	// from head on. The agent is "waiting" (asserting the request line)
	// while it is non-empty.
	head, queued int
	// curGenTime is the generation time of the request in service.
	curGenTime float64
	// curDur is the in-flight transaction's duration, consumed by the
	// agent's prebound completion event.
	curDur float64
	// outstanding counts requests generated but not completed.
	outstanding int
	// genBlocked marks a full window: the interrequest clock restarts
	// when a completion frees a slot.
	genBlocked bool
}

func (a *agentState) waiting() bool { return a.queued > 0 }

// The simulator's event kinds. An agent has at most one think time and
// one transaction pending (one interrequest clock, one bus), and one
// arbitration is in flight at a time, so the event argument — the agent
// — is all the state an event carries. The bus has one master at a
// time, so the system has at most one evComplete pending, and with one
// arbitration in flight and one horizon at most one evResolve and one
// evHorizon: all three are declared solo (sim.Scheduler.Solo) and skip
// the heap, which then holds only the agents' think times.
const (
	evArrive   sim.Kind = iota // the agent's think time ends
	evComplete                 // the agent's transaction ends
	evResolve                  // the arbitration in flight settles
	evHorizon                  // Config.Horizon: measurement ends
)

type system struct {
	cfg    Config
	sched  sim.Scheduler
	tree   *topo.Tree   // non-nil iff cfg.Topology is set
	agents []agentState // index by id (0 unused)
	// genTimes holds every agent's request-time ring: agent id's is
	// genTimes[(id-1)*Window : id*Window].
	genTimes []float64
	// bus is the §4.1 controller: agent i's line is up while it has a
	// request not yet in service.
	bus busctl.Controller

	service float64
	arbOvh  float64

	// measurement state
	warmupLeft     int64
	target         int64
	batchSize      int64
	done           bool
	completions    int64
	startTime      float64 // time warmup ended
	batchStart     float64
	batchIdx       int
	batchAgentCnt  []int64 // per-agent completions in current batch
	batchWait      stats.Running
	batchBusy      float64 // bus busy time accrued in current batch
	agentBatches   [][]float64
	waitBatchMeans []float64
	waitBatchStds  []float64
	utilBatches    []float64
	serviceSrc     *rng.Source
	res            *Result
}

// Validate checks the configuration without running it; Run panics on
// exactly these errors. Every simulator Config in this repository
// shares this pre-flight contract — the busarb.Run facade calls it and
// returns the error instead of panicking.
func (cfg Config) Validate() error {
	if cfg.N <= 0 {
		return fmt.Errorf("bussim: N must be positive")
	}
	switch {
	case cfg.Protocol == nil && cfg.Topology == nil:
		return fmt.Errorf("bussim: Protocol factory required")
	case cfg.Protocol != nil && cfg.Topology != nil:
		return fmt.Errorf("bussim: set exactly one of Protocol and Topology")
	case cfg.Topology != nil:
		if err := cfg.Topology.Validate(func(name string) error {
			_, err := core.ByName(name)
			return err
		}); err != nil {
			return err
		}
		if total := cfg.Topology.TotalAgents(); total != cfg.N {
			return fmt.Errorf("bussim: Topology has %d agents, want N=%d", total, cfg.N)
		}
		if cfg.Window > 1 {
			return fmt.Errorf("bussim: Window %d > 1 not supported on a Topology", cfg.Window)
		}
	}
	switch {
	case cfg.Sources != nil && cfg.Inter != nil:
		return fmt.Errorf("bussim: set exactly one of Inter and Sources")
	case cfg.Sources != nil:
		if len(cfg.Sources) != cfg.N {
			return fmt.Errorf("bussim: len(Sources)=%d, want N=%d", len(cfg.Sources), cfg.N)
		}
	case len(cfg.Inter) != cfg.N:
		return fmt.Errorf("bussim: len(Inter)=%d, want N=%d", len(cfg.Inter), cfg.N)
	}
	if cfg.UrgentProb != nil && len(cfg.UrgentProb) != cfg.N {
		return fmt.Errorf("bussim: len(UrgentProb) must equal N")
	}
	service, arbOvh := cfg.Service, cfg.ArbOverhead
	if service == 0 {
		service = 1.0
	}
	if arbOvh == 0 {
		arbOvh = 0.5
	}
	if service <= 0 || arbOvh <= 0 {
		return fmt.Errorf("bussim: need positive Service and ArbOverhead, got %v, %v",
			cfg.Service, cfg.ArbOverhead)
	}
	if cfg.ServiceDist == nil && arbOvh > service {
		return fmt.Errorf("bussim: ArbOverhead %v exceeds Service %v", arbOvh, service)
	}
	if cfg.Horizon < 0 {
		return fmt.Errorf("bussim: negative Horizon %v", cfg.Horizon)
	}
	if cfg.Window < 0 {
		return fmt.Errorf("bussim: Window %d < 1", cfg.Window)
	}
	return nil
}

// Run executes the simulation described by cfg and returns its Result.
func Run(cfg Config) *Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Service == 0 {
		cfg.Service = 1.0
	}
	if cfg.ArbOverhead == 0 {
		cfg.ArbOverhead = 0.5
	}
	if cfg.Batches == 0 {
		cfg.Batches = 10
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 8000
	}
	if cfg.Window == 0 {
		cfg.Window = 1
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = cfg.BatchSize
	} else if cfg.Warmup < 0 {
		cfg.Warmup = 0
	}

	var proto core.Protocol
	var tree *topo.Tree
	if cfg.Topology != nil {
		var err error
		tree, err = topo.NewTree(cfg.Topology)
		if err != nil {
			panic(err)
		}
		proto = tree
	} else {
		proto = cfg.Protocol(cfg.N)
	}
	if proto.N() != cfg.N {
		panic("bussim: protocol built for wrong N")
	}
	if cfg.Window > 1 {
		// Multi-outstanding service requires a protocol that tracks
		// per-request state and serves each agent's requests in FIFO
		// order (core.MultiFCFS).
		m, ok := proto.(interface{ MaxOutstanding() int })
		if !ok {
			panic(fmt.Sprintf("bussim: protocol %s does not support Window > 1", proto.Name()))
		}
		if m.MaxOutstanding() < cfg.Window {
			panic(fmt.Sprintf("bussim: protocol window %d < configured %d", m.MaxOutstanding(), cfg.Window))
		}
	}
	s := &system{
		cfg:            cfg,
		tree:           tree,
		service:        cfg.Service,
		arbOvh:         cfg.ArbOverhead,
		warmupLeft:     int64(cfg.Warmup),
		target:         int64(cfg.Batches) * int64(cfg.BatchSize),
		batchSize:      int64(cfg.BatchSize),
		batchAgentCnt:  make([]int64, cfg.N+1),
		agentBatches:   make([][]float64, cfg.N),
		waitBatchMeans: make([]float64, 0, cfg.Batches),
		waitBatchStds:  make([]float64, 0, cfg.Batches),
		utilBatches:    make([]float64, 0, cfg.Batches),
	}
	s.sched.Solo(evComplete, evResolve, evHorizon)
	s.bus.LateJoin, s.bus.BoundaryArbOnly = cfg.LateJoin, cfg.BoundaryArbOnly
	s.bus.Init(proto)
	rows := make([]float64, cfg.N*cfg.Batches)
	for i := range s.agentBatches {
		s.agentBatches[i] = rows[i*cfg.Batches : i*cfg.Batches : (i+1)*cfg.Batches]
	}
	s.res = &Result{
		ProtocolName: proto.Name(),
		N:            cfg.N,
		Seed:         cfg.Seed,
		AgentWait:    make([]stats.Running, cfg.N),
		MeanInter:    meanInterHint(cfg),
		Instance:     proto,
	}
	if cfg.CollectWaits {
		s.res.Waits = &stats.ECDF{}
		s.res.Waits.Reserve(int(s.target))
	}

	master := rng.New(cfg.Seed)
	s.serviceSrc = master.Split()
	s.agents = make([]agentState, cfg.N+1)
	s.genTimes = make([]float64, cfg.N*cfg.Window)
	// The heap holds only the agents' think times, at most one each.
	s.sched.Grow(cfg.N)
	for id := 1; id <= cfg.N; id++ {
		a := &s.agents[id]
		a.id = id
		master.SplitInto(&a.src)
		if cfg.UrgentProb != nil {
			a.urgentProb = cfg.UrgentProb[id-1]
		}
		s.scheduleNextRequest(a)
	}

	if cfg.Horizon > 0 {
		// A hard stop at the horizon: measurement simply ends there,
		// discarding any partial batch in progress. With Horizon == 0
		// no event is scheduled and the run is bit-identical to the
		// pre-Horizon engine.
		s.sched.At(cfg.Horizon, evHorizon, 0)
	}
	for !s.done {
		kind, id, ok := s.sched.Next(math.Inf(1))
		if !ok {
			break
		}
		switch kind {
		case evArrive:
			s.requestArrives(&s.agents[id])
		case evComplete:
			s.completeService(&s.agents[id])
		case evResolve:
			s.resolveArbitration()
		case evHorizon:
			s.done = true
		}
	}
	s.finish()
	return s.res
}

func (s *system) scheduleNextRequest(a *agentState) {
	var d float64
	if s.cfg.Sources != nil {
		d = s.cfg.Sources[a.id-1].NextThink(&a.src)
	} else {
		d = s.cfg.Inter[a.id-1].Sample(&a.src)
	}
	if d < 0 {
		panic(fmt.Sprintf("bussim: agent %d produced negative think time %v", a.id, d))
	}
	s.sched.After(d, evArrive, a.id)
}

func (s *system) requestArrives(a *agentState) {
	if a.outstanding >= s.cfg.Window {
		panic("bussim: agent exceeded its request window")
	}
	a.outstanding++
	tail := a.head + a.queued
	if tail >= s.cfg.Window {
		tail -= s.cfg.Window
	}
	s.genTimes[(a.id-1)*s.cfg.Window+tail] = s.sched.Now()
	a.queued++
	a.urgent = a.urgentProb > 0 && a.src.Float64() < a.urgentProb
	// The interrequest clock runs only while the window has room.
	if a.outstanding < s.cfg.Window {
		s.scheduleNextRequest(a)
	} else {
		a.genBlocked = true
	}
	act := s.bus.Request(a.id, s.sched.Now(), a.urgent)
	s.emit(obs.Event{Time: s.sched.Now(), Kind: obs.RequestIssued, Agent: a.id, Urgent: a.urgent})
	s.follow(act, 0)
}

// follow carries out the controller's answer. It is small enough to
// inline, so the common Wait costs the event loop no call.
func (s *system) follow(act busctl.Action, w int) {
	if act != busctl.Wait {
		s.carry(act, w)
	}
}

// carry times the resolve of an arbitration or a repass, or starts the
// winner's transaction.
//
//arblint:alloc the ArbitrationStart competitor list, made only when an Observer is set
func (s *system) carry(act busctl.Action, w int) {
	switch act {
	case busctl.Arbitrate:
		if s.cfg.Observer != nil {
			// Probes may retain events, so the snapshot is listed into a
			// fresh slice (observed runs are not the allocation-free path).
			snap := s.bus.Snapshot()
			s.emit(obs.Event{Time: s.sched.Now(), Kind: obs.ArbitrationStart,
				Agents: snap.AppendIDs(make([]int, 0, snap.Count()))})
		}
		s.sched.After(s.arbOvh, evResolve, 0)
	case busctl.Repass:
		// The fresh pass costs another arbitration delay, which may
		// spill past the current transaction's end.
		s.emit(obs.Event{Time: s.sched.Now(), Kind: obs.Repass})
		s.sched.After(s.arbOvh, evResolve, 0)
	case busctl.Grant:
		s.startService(w)
	}
}

// emit forwards an event to the configured observer, if any.
func (s *system) emit(e obs.Event) {
	if s.cfg.Observer != nil {
		s.cfg.Observer.OnEvent(e)
	}
}

func (s *system) resolveArbitration() {
	act, w := s.bus.Resolve()
	switch {
	case act == busctl.Repass: // carry emits the Repass
	case s.tree != nil && s.cfg.Observer != nil:
		// One resolve event per level of the winner's path, root
		// first: the same settle seen at each bus of the tree. Wait is
		// the hop wait — resolve time minus the assert time of that
		// level's winning line. Metrics counts only the level-0 event
		// as an arbitration.
		now := s.sched.Now()
		for _, h := range s.tree.LastHops() {
			s.emit(obs.Event{Time: now, Kind: obs.ArbitrationResolve, Agent: w,
				Level: h.Level, Wait: now - h.LineUp})
		}
	default:
		s.emit(obs.Event{Time: s.sched.Now(), Kind: obs.ArbitrationResolve, Agent: w})
	}
	s.follow(act, w)
}

func (s *system) startService(id int) {
	a := &s.agents[id]
	// The oldest queued request enters service.
	a.curGenTime = s.genTimes[(id-1)*s.cfg.Window+a.head]
	a.queued--
	if a.head++; a.head == s.cfg.Window {
		a.head = 0
	}
	act := s.bus.TenureStart(id, s.sched.Now(), a.waiting())
	s.emit(obs.Event{Time: s.sched.Now(), Kind: obs.ServiceStart, Agent: id})
	dur := s.service
	if s.cfg.ServiceDist != nil {
		dur = s.cfg.ServiceDist.Sample(s.serviceSrc)
	}
	a.curDur = dur
	s.sched.After(dur, evComplete, id)
	s.follow(act, 0)
}

func (s *system) completeService(a *agentState) {
	now := s.sched.Now()
	s.emit(obs.Event{Time: now, Kind: obs.ServiceEnd, Agent: a.id})
	s.recordCompletion(a, now-a.curGenTime, a.curDur)
	a.outstanding--
	if a.genBlocked {
		a.genBlocked = false
		s.scheduleNextRequest(a)
	}
	if s.done {
		return
	}
	s.follow(s.bus.TenureEnd())
}

func (s *system) recordCompletion(a *agentState, wait, dur float64) {
	if s.warmupLeft > 0 {
		s.warmupLeft--
		if s.warmupLeft == 0 {
			s.startTime = s.sched.Now()
			s.batchStart = s.sched.Now()
		}
		return
	}
	if s.completions >= s.target {
		return
	}
	s.completions++
	s.batchBusy += dur
	s.res.WaitPooled.Add(wait)
	s.res.AgentWait[a.id-1].Add(wait)
	// Without UrgentProb every request is normal, and finish copies
	// WaitPooled into WaitNormal.
	if s.cfg.UrgentProb != nil {
		if a.urgent {
			s.res.WaitUrgent.Add(wait)
		} else {
			s.res.WaitNormal.Add(wait)
		}
	}
	s.batchWait.Add(wait)
	s.batchAgentCnt[a.id]++
	if s.res.Waits != nil {
		s.res.Waits.Add(wait)
	}
	if s.completions%s.batchSize == 0 {
		s.closeBatch()
	}
	if s.completions >= s.target {
		s.done = true
	}
}

func (s *system) closeBatch() {
	now := s.sched.Now()
	dur := now - s.batchStart
	if dur <= 0 {
		dur = 1e-12
	}
	for id := 1; id <= s.cfg.N; id++ {
		s.agentBatches[id-1] = append(s.agentBatches[id-1],
			float64(s.batchAgentCnt[id])/dur)
		s.batchAgentCnt[id] = 0
	}
	s.waitBatchMeans = append(s.waitBatchMeans, s.batchWait.Mean())
	s.waitBatchStds = append(s.waitBatchStds, s.batchWait.StdDev())
	s.utilBatches = append(s.utilBatches, s.batchBusy/dur)
	s.batchBusy = 0
	s.batchWait.Reset()
	s.batchStart = now
	s.batchIdx++
}

func (s *system) finish() {
	r := s.res
	r.Completions = s.completions
	r.Elapsed = s.sched.Now() - s.startTime
	r.WallTime = s.sched.Now()
	r.AgentBatches = s.agentBatches
	r.Arbitrations, r.Repasses, r.ExposedArbs = s.bus.Arbitrations, s.bus.Repasses, s.bus.Exposed
	if s.cfg.UrgentProb == nil {
		r.WaitNormal = r.WaitPooled
	}

	// Total throughput per batch is the sum of agent throughputs.
	nb := len(s.waitBatchMeans)
	totals := make([]float64, nb)
	for b := 0; b < nb; b++ {
		for a := 0; a < s.cfg.N; a++ {
			totals[b] += s.agentBatches[a][b]
		}
	}
	r.Throughput = stats.BatchMeans(totals)
	r.Utilization = stats.BatchMeans(s.utilBatches)
	r.AgentThroughput = make([]stats.Estimate, s.cfg.N)
	for a := 0; a < s.cfg.N; a++ {
		r.AgentThroughput[a] = stats.BatchMeans(s.agentBatches[a])
	}
	r.WaitMean = stats.BatchMeans(s.waitBatchMeans)
	r.WaitStdDev = stats.BatchMeans(s.waitBatchStds)
	r.BatchAutocorr = stats.Lag1Autocorrelation(s.waitBatchMeans)
}
