package busarb_test

import (
	"fmt"

	"busarb"
)

// ExampleSimulate runs the paper's §4.1 bus model under the distributed
// round-robin protocol and reports fairness.
func ExampleSimulate() {
	sc := busarb.EqualWorkload(10, 2.0, 1.0)
	cfg := busarb.SimConfig{
		Protocol:  busarb.MustProtocol("RR1"),
		Seed:      1988,
		Batches:   5,
		BatchSize: 2000,
	}
	sc.Apply(&cfg)
	res := busarb.Simulate(cfg)
	ratio := res.ThroughputRatio(10, 1)
	fmt.Printf("utilization %.2f, fairness ratio within CI of 1.00: %v\n",
		res.Utilization.Mean, ratio.Contains(1.0))
	// Output:
	// utilization 1.00, fairness ratio within CI of 1.00: true
}

// ExampleNewProtocol shows direct protocol use: drive an arbitration by
// hand, as a hardware testbench would.
func ExampleNewProtocol() {
	p, err := busarb.NewProtocol("RR1", 8)
	if err != nil {
		panic(err)
	}
	// Three agents raise their request lines; arbitrations pick them in
	// round-robin order.
	waiting := busarb.NewWaiting(8)
	for _, id := range []int{2, 5, 7} {
		p.OnRequest(id, 0)
		waiting.Set(id)
	}
	for waiting.Any() {
		out := p.Arbitrate(waiting)
		p.OnServiceStart(out.Winner, 0)
		waiting.Clear(out.Winner)
		fmt.Println("granted", out.Winner)
	}
	// Output:
	// granted 7
	// granted 5
	// granted 2
}

// ExampleLineLevelBus drives the cycle-accurate wired-OR model: the
// same grant order emerges from registers, comparators and open-
// collector lines.
func ExampleLineLevelBus() {
	bus, err := busarb.LineLevelBus("FCFS2", 8)
	if err != nil {
		panic(err)
	}
	bus.Request(6)
	bus.Step()
	bus.Request(3) // arrives later than 6: served later despite any id
	if err := bus.RunUntilIdle(100); err != nil {
		panic(err)
	}
	fmt.Println("grant order:", bus.GrantOrder())
	// Output:
	// grant order: [6 3]
}

// ExampleTable45 regenerates the paper's worst-case table at reduced
// effort: the slow agent's throughput collapses only at CV = 0.
func ExampleTable45() {
	rows := busarb.Table45(10, busarb.ExperimentOpts{Batches: 5, BatchSize: 1000, Seed: 1988})
	fmt.Printf("CV=%.2f ratio %.2f\n", rows[0].CV, rows[0].Ratio.Mean)
	recovered := rows[len(rows)-1].Ratio.Mean > 0.65
	fmt.Println("recovers with variability:", recovered)
	// Output:
	// CV=0.00 ratio 0.50
	// recovers with variability: true
}
