package main

// The four workloads. All are closed loops, because the paper's agents
// each hold one outstanding request: a caller issues its next request
// only once the previous one is answered. Each runs in one process,
// with GOMAXPROCS and the connection count at most the two vCPUs the
// benchmark is sized for.
//
// Every end-to-end metric is printed for every workload, so each has a
// reading on both kinds (see bench.go). Simulated time never enters a
// timing: the sims are timed on the reference clock (ref.go), the
// serving workloads on the wall clock.

// paperLoads is the offered-load grid of the paper's §4 tables, frozen
// here so that a change to the repository's experiment package cannot
// change the benchmark's input.
var paperLoads = []float64{0.25, 0.50, 1.00, 1.50, 2.00, 2.50, 5.00, 7.50}

type workload struct {
	name  string
	sim   *simSpec
	serve *serveSpec
}

var workloads = []workload{
	// sim-paper: n=30, the eight paper loads, each under RR1, FCFS1,
	// FCFS2 and AAP1 (Table 4.1's protocols plus the accurate FCFS),
	// one Simulate call per load and protocol, in sequence in one
	// goroutine. Host time goes to the event heap (internal/sim push
	// and pop, about 35% of a CPU profile), sampling, stats and
	// bussim's cycle logic, while the waiting set fits in one word. It
	// is the control for any change to the arbitration path: such a
	// change should move bussim.ns_per_completion and ops_per_s here
	// much less than on sim-1024, and leave
	// bussim.completions, bussim.arbitrations, bussim.exposed_arbs and
	// bussim.events identical.
	{name: "sim-paper", sim: &simSpec{
		n:      30,
		loads:  paperLoads,
		protos: []string{"RR1", "FCFS1", "FCFS2", "AAP1"},
		// About 7ms of host time per call: a pass over the 32 calls
		// is short enough to repeat dozens of times in a run.
		batches: 10, batchSize: 1000,
		checkBatches: 10, checkBatchSize: 4000,
	}},
	// sim-1024: n=1024, loads 1.5 and 7.5, each under RR1 and FCFS2.
	// Over 80% of host time goes to building the sorted waiting set
	// (bussim.snapshotWaiting, about 63%) and arbitrating over it
	// (core Arbitrate plus validateWaiting, about 20%): the path that a
	// bit-vector waiting set would rewrite, and a minor one on
	// sim-paper. Such a rewrite should move bussim.ns_per_completion,
	// bussim.allocs_per_completion, ops_per_s and heap_peak_mb here,
	// and leave the four exact bussim counts identical.
	{name: "sim-1024", sim: &simSpec{
		n:      1024,
		loads:  []float64{1.5, 7.5},
		protos: []string{"RR1", "FCFS2"},
		// Short calls (about 15ms) keep the passes numerous; the
		// set-up inside Simulate stays a few percent of a call.
		batches: 2, batchSize: 1024,
		checkBatches: 10, checkBatchSize: 10240,
	}},
	// serve-solo: one agent, one client, zero think and hold time,
	// RR1, binary transport over loopback TCP. It is the uncontended
	// round trip at the top of the serving latency ladder: today about
	// one 1ms shard tick. It registers an event-driven shard and every
	// fixed per-request cost, with no arbitration choice involved.
	// arbd.queue_wait_p50_ms should move wait_p50_ms here;
	// client.release_p50_ms should move ops_per_s; the transport
	// counts per op should stay flat.
	{name: "serve-solo", serve: &serveSpec{
		resources: []serveResource{{name: "bus", protocol: "RR1", agents: 1, first: 1, last: 1}},
		conns:     1,
	}},
	// serve-contended: 32 agents on each of two resources, one under
	// RR1 and one under FCFS2, one client goroutine per identity
	// multiplexed over two binary connections, zero think and hold
	// time. Every grant has a queue behind it: this loads arbitration
	// among many waiters, the handoff from release to the next grant
	// and the grant fan-out, using the same shard as serve-solo the
	// opposite way, and it is where Table 4.1's fairness must survive
	// over the wire. arbd.hold_p50_ms should move ops_per_s here;
	// arbd.idle_gap_p50_ms should move ops_per_s and wait_p50_ms;
	// arbd.grants_per_arbitration the failed share; the transport and
	// runtime counts per op move ops_per_s once a cycle is CPU-bound.
	// The resources take disjoint identity ranges so that the daemon's
	// observer events, which carry no resource, join to their client
	// by agent alone.
	{name: "serve-contended", serve: &serveSpec{
		resources: []serveResource{
			{name: "bus-rr1", protocol: "RR1", agents: 64, first: 1, last: 32},
			{name: "bus-fcfs2", protocol: "FCFS2", agents: 64, first: 33, last: 64},
		},
		conns: 2,
	}},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
