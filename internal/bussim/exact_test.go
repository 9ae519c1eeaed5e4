package bussim

import (
	"testing"

	"busarb/internal/core"
	"busarb/internal/dist"
	"busarb/internal/topo"
)

// TestExactCounts pins bussim's bus-level counts seed for seed, over
// every §4.1 path of the bus: RR3's empty passes (flat and as a tree
// leaf), the LateJoin and BoundaryArbOnly switches, a request window,
// urgent requests and drawn service times. Any change to when an
// arbitration starts, resolves or repasses moves at least one of them.
// The last four rows run perfbench's sim-1024 shape (N=1024, RR1 and
// FCFS2 at loads 1.5 and 7.5), where the event heap holds about a
// thousand think times; their counts are the same in every row, so the
// wall time and the mean wait carry the pin on the heap's pop order.
func TestExactCounts(t *testing.T) {
	byName := func(name string) core.Factory {
		f, err := core.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	base := func(name string, load float64) Config {
		return Config{
			N: 8, Protocol: byName(name), Inter: UniformLoad(8, load, 1.0, 1.0),
			Seed: 21, Batches: 2, BatchSize: 500,
		}
	}
	big := func(name string, load float64) func() Config {
		return func() Config {
			return Config{
				N: 1024, Protocol: byName(name), Inter: UniformLoad(1024, load, 1.0, 1.0),
				Seed: 21, Batches: 2, BatchSize: 1024,
			}
		}
	}
	tree, err := topo.ParseUniform("2x4", "RR3/RR1")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  func() Config
		want [4]int64 // Completions, Arbitrations, ExposedArbs, Repasses
		wall float64
		wait float64 // WaitMean.Mean
	}{
		{"RR3", func() Config { return base("RR3", 1.1) }, [4]int64{1000, 1501, 105, 507}, 1717.5004027140792, 2.910960021819916},
		{"tree RR1(4xRR3:2)", func() Config {
			c := base("RR1", 1.3)
			c.Protocol, c.Topology = nil, tree
			return c
		}, [4]int64{1000, 1501, 36, 914}, 1734.259992724772, 4.156081025512137},
		{"LateJoin", func() Config {
			c := base("FCFS2", 1.2)
			c.LateJoin = true
			return c
		}, [4]int64{1000, 1501, 82, 0}, 1628.310467197851, 3.0699630772036786},
		{"BoundaryArbOnly", func() Config {
			c := base("RR1", 0.9)
			c.BoundaryArbOnly = true
			return c
		}, [4]int64{1000, 1500, 512, 0}, 1955.4838537949047, 2.6815464978688297},
		{"Window 2 MultiFCFS", func() Config {
			c := base("FCFS2", 0.9)
			c.Protocol = func(n int) core.Protocol { return core.NewMultiFCFS(n, 2) }
			c.Window = 2
			return c
		}, [4]int64{1000, 1501, 69, 0}, 1604.3141132501237, 4.3250558535279255},
		{"UrgentProb RR1+prio", func() Config {
			c := base("RR1+prio", 1.3)
			c.UrgentProb = []float64{0.5, 0, 0, 0.2, 0, 0, 0, 0.1}
			return c
		}, [4]int64{1000, 1501, 58, 0}, 1585.8081747212764, 3.2671000489236066},
		{"ServiceDist", func() Config {
			c := base("RR1", 1.2)
			c.ServiceDist = dist.Exponential{MeanValue: 1.0}
			return c
		}, [4]int64{1000, 1500, 107, 0}, 1812.8667886749374, 3.997667097738905},
		{"n=1024 RR1 1.5", big("RR1", 1.5), [4]int64{2048, 3073, 1, 0}, 3072.5230014458803, 293.46242157106224},
		{"n=1024 RR1 7.5", big("RR1", 7.5), [4]int64{2048, 3073, 1, 0}, 3072.5045732948142, 880.6277694161213},
		{"n=1024 FCFS2 1.5", big("FCFS2", 1.5), [4]int64{2048, 3073, 1, 0}, 3072.5230014458803, 295.2361846693692},
		{"n=1024 FCFS2 7.5", big("FCFS2", 7.5), [4]int64{2048, 3073, 1, 0}, 3072.5045732948142, 874.3707194881245},
	}
	for _, c := range cases {
		r := Run(c.cfg())
		got := [4]int64{r.Completions, r.Arbitrations, r.ExposedArbs, r.Repasses}
		if got != c.want || r.WallTime != c.wall || r.WaitMean.Mean != c.wait {
			t.Errorf("%s: got %v, %v, %v; want %v, %v, %v", c.name, got, r.WallTime, r.WaitMean.Mean, c.want, c.wall, c.wait)
		}
	}
}
