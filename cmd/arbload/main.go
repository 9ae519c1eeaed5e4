// Command arbload drives a closed-loop workload against a running arbd
// daemon: N agents, each with a single outstanding request, thinking
// for a sampled interrequest time between grants — the paper's §4.1
// workload pointed at a live socket. It reports per-agent grant
// throughput, the bandwidth ratio t_N/t_1, and acquire-wait quantiles:
// Table 4.1 measured over the network.
//
// The -target scheme selects the transport: http:// drives the JSON
// surface, tcp:// the binary protocol (every agent multiplexed over
// one persistent connection). A comma-separated -target list drives an
// arbd cluster through client.DialCluster, routing each resource to
// its owning member. All traffic goes through busarb/client.
//
// -resources spreads the agents round-robin over several resources
// (agent i drives resource (i-1)%R with per-resource identity
// (i-1)/R+1), so one run can load every shard of a cluster.
//
// Examples:
//
//	arbload -target http://127.0.0.1:8321 -resource bus -agents 10 -requests 100
//	arbload -target tcp://127.0.0.1:8322 -resource bus -agents 100 -requests 50
//	arbload -resource bus -agents 30 -requests 20 -hold 1ms -timeout 2s
//	arbload -target tcp://h1:8322,tcp://h2:8322 -resources bus,disk,dma -agents 30
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"busarb/internal/arbd"
)

// splitList parses a comma-separated flag value, dropping empty
// entries.
func splitList(spec string) []string {
	var out []string
	for _, part := range strings.Split(spec, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func main() {
	target := flag.String("target", "http://127.0.0.1:8321",
		"daemon target; the scheme selects the transport (http:// or tcp://); a comma-separated list drives an arbd cluster")
	resource := flag.String("resource", "bus", "resource to arbitrate for")
	resourceList := flag.String("resources", "",
		"comma-separated resources to spread the agents over round-robin (overrides -resource)")
	agents := flag.Int("agents", 10, "number of closed-loop agents (identities 1..N)")
	requests := flag.Int("requests", 100, "grant budget per agent")
	think := flag.Duration("think", 0, "mean interrequest (think) time; 0 is saturation")
	cv := flag.Float64("cv", 1.0, "coefficient of variation of the think time")
	hold := flag.Duration("hold", 0, "lease hold time before release")
	timeout := flag.Duration("timeout", 0, "per-acquire client timeout; 0 waits indefinitely")
	seed := flag.Uint64("seed", 1, "think-time random seed")
	flag.Parse()

	var resources []string
	switch {
	case *resourceList != "":
		if resources = splitList(*resourceList); len(resources) == 0 {
			fmt.Fprintf(os.Stderr, "arbload: -resources spec %q names no resources\n", *resourceList)
			os.Exit(1)
		}
	case *resource != "":
		resources = []string{*resource}
	}
	cfg := arbd.LoadConfig{
		Targets:   splitList(*target),
		Resources: resources,
		Agents:    *agents,
		Requests:  *requests,
		ThinkMean: think.Seconds(),
		ThinkCV:   *cv,
		Hold:      *hold,
		Timeout:   *timeout,
		Seed:      *seed,
	}
	rep, err := arbd.RunLoad(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := rep.WriteReport(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "arbload:", err)
		os.Exit(1)
	}
}
