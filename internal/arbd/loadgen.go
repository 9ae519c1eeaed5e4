package arbd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"busarb/client"
	"busarb/internal/dist"
	"busarb/internal/rng"
)

// This file is the closed-loop load generator behind cmd/arbload: the
// paper's §4.1 workload pointed at a live daemon. Each agent is one
// client goroutine with a single outstanding request: think for a
// sampled interrequest time, acquire, hold, release, repeat, for a
// fixed per-agent request budget. The report mirrors Table 4.1 over a
// socket: per-agent grant throughput, the bandwidth ratio t_N/t_1
// (worst-served over best-served agent), and acquire-wait quantiles.
//
// All traffic goes through the public busarb/client package — the
// generator issues no hand-rolled requests — so the target's scheme
// selects the transport: "http://host:port" drives the JSON surface,
// "tcp://host:port" the binary protocol, where every agent in the run
// multiplexes over one persistent connection. (The generator lives in
// internal/arbd rather than cmd/arbload so the CLIs stay free of
// wall-clock reads — the determinism analyzer binds cmd/.)

// LoadConfig describes one load run.
type LoadConfig struct {
	// Targets locate the daemon and select the transport by scheme:
	// "http://127.0.0.1:8321" (HTTP) or "tcp://127.0.0.1:8322"
	// (binary). One target is dialed with client.Dial; several with
	// client.DialCluster, so the run drives an arbd cluster with
	// owner-aware routing.
	Targets []string
	// Resources names the arbitrated resources to pound on. The agents
	// spread round-robin over them: agent i drives Resources[(i-1)%R]
	// under per-resource identity (i-1)/R+1, so each resource sees a
	// dense 1..ceil(N/R) identity range.
	Resources []string
	// Agents is the number of closed-loop clients (identities 1..Agents).
	Agents int
	// Requests is each agent's grant budget.
	Requests int
	// ThinkMean and ThinkCV shape the interrequest-time distribution
	// (§4.1): mean seconds between release and the next acquire, with
	// the given coefficient of variation. ThinkMean 0 is saturation.
	ThinkMean float64
	ThinkCV   float64
	// Hold is how long each lease is held before release.
	Hold time.Duration
	// Timeout bounds each acquire; 0 means no client timeout.
	Timeout time.Duration
	// Seed selects the think-time random streams.
	Seed uint64
}

// Validate checks the configuration; RunLoad returns exactly these
// errors before touching the network.
func (cfg LoadConfig) Validate() error {
	if len(cfg.Targets) == 0 {
		return fmt.Errorf("arbload: target required")
	}
	for _, target := range cfg.Targets {
		if target == "" {
			return fmt.Errorf("arbload: empty target in list")
		}
	}
	if len(cfg.Resources) == 0 {
		return fmt.Errorf("arbload: resource name required")
	}
	for _, r := range cfg.Resources {
		if r == "" {
			return fmt.Errorf("arbload: empty resource name in list")
		}
	}
	if cfg.Agents < 1 {
		return fmt.Errorf("arbload: need at least 1 agent, got %d", cfg.Agents)
	}
	if cfg.Requests < 1 {
		return fmt.Errorf("arbload: need at least 1 request per agent, got %d", cfg.Requests)
	}
	if cfg.ThinkMean < 0 || cfg.ThinkCV < 0 {
		return fmt.Errorf("arbload: negative think mean or CV")
	}
	if cfg.Hold < 0 || cfg.Timeout < 0 {
		return fmt.Errorf("arbload: negative hold or timeout")
	}
	return nil
}

// AgentLoad is one agent's measurements.
type AgentLoad struct {
	// Resource is the resource this agent drove (its round-robin
	// assignment over LoadConfig.Resources).
	Resource string
	// Identity is the arbitrating identity the agent used on its
	// resource (dense 1..ceil(N/R) per resource).
	Identity int
	// Grants is the number of leases obtained (== the budget unless
	// acquires timed out).
	Grants int64
	// Timeouts counts deadline answers (the daemon's 408).
	Timeouts int64
	// Elapsed is the agent's wall time from the run's common start to
	// its last release.
	Elapsed time.Duration
	// Throughput is Grants per second of Elapsed.
	Throughput float64
	// WaitP50, WaitP90, WaitMax summarize the acquire latencies.
	WaitP50 time.Duration
	WaitP90 time.Duration
	WaitMax time.Duration
}

// LoadReport is the run's result.
type LoadReport struct {
	Agents  []AgentLoad // indexed by identity-1
	Elapsed time.Duration
	// BandwidthRatio is the networked Table 4.1 figure: the
	// worst-served agent's throughput over the best-served agent's
	// (t_N/t_1). Near 1.0 means the protocol shared the resource
	// evenly; well below 1.0 means somebody starved.
	BandwidthRatio float64
	// WaitP50, WaitP90, WaitMax pool every agent's acquire latencies.
	WaitP50 time.Duration
	WaitP90 time.Duration
	WaitMax time.Duration
}

// RunLoad drives the workload against a live daemon and reports. An
// unreachable daemon or a non-grant answer other than the deadline
// backpressure (client.ErrDeadline) fails the run.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var c *client.Client
	var err error
	if len(cfg.Targets) > 1 {
		c, err = client.DialCluster(cfg.Targets)
	} else {
		c, err = client.Dial(cfg.Targets[0])
	}
	if err != nil {
		return nil, fmt.Errorf("arbload: %w", err)
	}
	defer c.Close()

	type agentResult struct {
		agent AgentLoad
		waits []time.Duration
		err   error
	}
	results := make([]agentResult, cfg.Agents)
	master := rng.New(cfg.Seed)
	srcs := make([]*rng.Source, cfg.Agents)
	for i := range srcs {
		srcs[i] = master.Split()
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	// Every agent waits at one barrier and measures its span from the
	// instant it opens: agents' own start times can differ by a large
	// share of a short run, which would decide the bandwidth ratio.
	barrier := make(chan struct{})
	var start time.Time
	for id := 1; id <= cfg.Agents; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			res := &results[id-1]
			// Round-robin assignment over the resource list: dense
			// per-resource identities keep each shard's protocol seeing
			// agents 1..ceil(N/R), the shape the fairness figures assume.
			resource := cfg.Resources[(id-1)%len(cfg.Resources)]
			identity := (id-1)/len(cfg.Resources) + 1
			res.agent.Resource = resource
			res.agent.Identity = identity
			var think dist.Sampler
			if cfg.ThinkMean > 0 {
				think = dist.ByCV(cfg.ThinkMean, cfg.ThinkCV)
			}
			src := srcs[id-1]
			<-barrier
			for r := 0; r < cfg.Requests; r++ {
				if think != nil {
					time.Sleep(time.Duration(think.Sample(src) * float64(time.Second)))
				}
				t0 := time.Now()
				lease, err := c.Acquire(ctx, resource, identity,
					client.AcquireOptions{Timeout: cfg.Timeout})
				if errors.Is(err, client.ErrDeadline) {
					res.agent.Timeouts++
					continue
				}
				if err != nil {
					res.err = fmt.Errorf("arbload: acquire: %w", err)
					return
				}
				res.waits = append(res.waits, time.Since(t0))
				res.agent.Grants++
				if cfg.Hold > 0 {
					time.Sleep(cfg.Hold)
				}
				if err := c.Release(ctx, lease); err != nil {
					res.err = fmt.Errorf("arbload: release: %w", err)
					return
				}
			}
			res.agent.Elapsed = time.Since(start)
		}(id)
	}
	start = time.Now()
	close(barrier)
	wg.Wait()

	rep := &LoadReport{Agents: make([]AgentLoad, cfg.Agents), Elapsed: time.Since(start)}
	var pooled []time.Duration
	minTP, maxTP := 0.0, 0.0
	for i := range results {
		if results[i].err != nil {
			return nil, results[i].err
		}
		a := results[i].agent
		if a.Elapsed > 0 {
			a.Throughput = float64(a.Grants) / a.Elapsed.Seconds()
		}
		a.WaitP50 = durQuantile(results[i].waits, 0.50)
		a.WaitP90 = durQuantile(results[i].waits, 0.90)
		a.WaitMax = durQuantile(results[i].waits, 1.0)
		rep.Agents[i] = a
		pooled = append(pooled, results[i].waits...)
		if i == 0 || a.Throughput < minTP {
			minTP = a.Throughput
		}
		if i == 0 || a.Throughput > maxTP {
			maxTP = a.Throughput
		}
	}
	if maxTP > 0 {
		rep.BandwidthRatio = minTP / maxTP
	}
	rep.WaitP50 = durQuantile(pooled, 0.50)
	rep.WaitP90 = durQuantile(pooled, 0.90)
	rep.WaitMax = durQuantile(pooled, 1.0)
	return rep, nil
}

// durQuantile returns the q-quantile (nearest-rank) of the samples.
func durQuantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// WriteReport renders the report as the arbload CLI's output.
func (r *LoadReport) WriteReport(w io.Writer, cfg LoadConfig) error {
	via := targetScheme(cfg.Targets[0])
	if len(cfg.Targets) > 1 {
		via = fmt.Sprintf("cluster of %d", len(cfg.Targets))
	}
	if _, err := fmt.Fprintf(w, "arbload: %d agents x %d requests on %q via %s (%.2fs)\n",
		cfg.Agents, cfg.Requests, strings.Join(cfg.Resources, ","), via, r.Elapsed.Seconds()); err != nil {
		return err
	}
	multi := len(cfg.Resources) > 1
	if multi {
		if _, err := fmt.Fprintf(w, "  %5s %12s %8s %9s %11s %10s %10s %10s\n",
			"agent", "resource", "grants", "timeouts", "grants/s", "Wp50", "Wp90", "Wmax"); err != nil {
			return err
		}
	} else if _, err := fmt.Fprintf(w, "  %5s %8s %9s %11s %10s %10s %10s\n",
		"agent", "grants", "timeouts", "grants/s", "Wp50", "Wp90", "Wmax"); err != nil {
		return err
	}
	for i, a := range r.Agents {
		var err error
		if multi {
			_, err = fmt.Fprintf(w, "  %5d %12s %8d %9d %11.2f %10s %10s %10s\n",
				a.Identity, a.Resource, a.Grants, a.Timeouts, a.Throughput,
				a.WaitP50.Round(time.Microsecond), a.WaitP90.Round(time.Microsecond),
				a.WaitMax.Round(time.Microsecond))
		} else {
			_, err = fmt.Fprintf(w, "  %5d %8d %9d %11.2f %10s %10s %10s\n",
				i+1, a.Grants, a.Timeouts, a.Throughput,
				a.WaitP50.Round(time.Microsecond), a.WaitP90.Round(time.Microsecond),
				a.WaitMax.Round(time.Microsecond))
		}
		if err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "bandwidth ratio t_N/t_1 = %.3f (1.0 is perfectly fair); pooled Wp50=%s Wp90=%s Wmax=%s\n",
		r.BandwidthRatio, r.WaitP50.Round(time.Microsecond),
		r.WaitP90.Round(time.Microsecond), r.WaitMax.Round(time.Microsecond))
	return err
}

// targetScheme names the transport a target selects, for the report
// header.
func targetScheme(target string) string {
	if i := strings.Index(target, "://"); i > 0 {
		return target[:i]
	}
	return "?"
}
