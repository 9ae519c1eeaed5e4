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
	tree, err := topo.ParseUniform("2x4", "RR3/RR1")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  func() Config
		want [4]int64 // Completions, Arbitrations, ExposedArbs, Repasses
		wall float64
	}{
		{"RR3", func() Config { return base("RR3", 1.1) }, [4]int64{1000, 1501, 105, 507}, 1717.5004027140792},
		{"tree RR1(4xRR3:2)", func() Config {
			c := base("RR1", 1.3)
			c.Protocol, c.Topology = nil, tree
			return c
		}, [4]int64{1000, 1501, 36, 914}, 1734.259992724772},
		{"LateJoin", func() Config {
			c := base("FCFS2", 1.2)
			c.LateJoin = true
			return c
		}, [4]int64{1000, 1501, 82, 0}, 1628.310467197851},
		{"BoundaryArbOnly", func() Config {
			c := base("RR1", 0.9)
			c.BoundaryArbOnly = true
			return c
		}, [4]int64{1000, 1500, 512, 0}, 1955.4838537949047},
		{"Window 2 MultiFCFS", func() Config {
			c := base("FCFS2", 0.9)
			c.Protocol = func(n int) core.Protocol { return core.NewMultiFCFS(n, 2) }
			c.Window = 2
			return c
		}, [4]int64{1000, 1501, 69, 0}, 1604.3141132501237},
		{"UrgentProb RR1+prio", func() Config {
			c := base("RR1+prio", 1.3)
			c.UrgentProb = []float64{0.5, 0, 0, 0.2, 0, 0, 0, 0.1}
			return c
		}, [4]int64{1000, 1501, 58, 0}, 1585.8081747212764},
		{"ServiceDist", func() Config {
			c := base("RR1", 1.2)
			c.ServiceDist = dist.Exponential{MeanValue: 1.0}
			return c
		}, [4]int64{1000, 1500, 107, 0}, 1812.8667886749374},
	}
	for _, c := range cases {
		r := Run(c.cfg())
		got := [4]int64{r.Completions, r.Arbitrations, r.ExposedArbs, r.Repasses}
		if got != c.want || r.WallTime != c.wall {
			t.Errorf("%s: got %v, %v; want %v, %v", c.name, got, r.WallTime, c.want, c.wall)
		}
	}
}
