package topo

import (
	"slices"
	"testing"

	"busarb/internal/bitarb"
	"busarb/internal/core"
	"busarb/internal/rng"
)

// drive replays one random request/grant history through a tree under
// the simulators' convention (enqueue = OnRequest, grant = Arbitrate
// until no repass, then OnServiceStart) and checks every grant: the
// winner is waiting, and its hops run root first, one per level of the
// winner's path, none asserted after the resolve.
func drive(t *testing.T, spec *Spec, seed uint64, steps int) {
	t.Helper()
	tree, err := NewTree(spec)
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	n := spec.TotalAgents()
	if tree.N() != n {
		t.Fatalf("N = %d, want %d", tree.N(), n)
	}
	src := rng.New(seed)
	waiting := bitarb.NewVec(n)
	nwait := 0
	now := 0.0
	grants := 0
	for step := 0; step < steps; step++ {
		now += 1
		if nwait == 0 || (nwait < n && src.Float64() < 0.6) {
			g := 1 + src.Intn(n)
			for waiting.Test(g) {
				g = 1 + src.Intn(n)
			}
			waiting.Set(g)
			nwait++
			tree.OnRequest(g, now)
			continue
		}
		out := tree.Arbitrate(waiting)
		for out.Repass {
			out = tree.Arbitrate(waiting)
		}
		w := out.Winner
		if w < 1 || w > n || !waiting.Test(w) {
			t.Fatalf("step %d: granted non-waiting agent %d", step, w)
		}
		// Hops cover the winner's path: consecutive levels from the
		// root, at most the tree depth (less in lopsided trees when a
		// shallow cluster wins).
		hops := tree.LastHops()
		if len(hops) < 1 || len(hops) > spec.Depth() {
			t.Fatalf("step %d: %d hops for depth-%d tree", step, len(hops), spec.Depth())
		}
		for lvl, h := range hops {
			if h.Level != lvl {
				t.Fatalf("step %d: hop %d at level %d, want root-first order", step, lvl, h.Level)
			}
			if h.LineUp > now {
				t.Fatalf("step %d: hop level %d line-up %v after resolve %v", step, lvl, h.LineUp, now)
			}
		}
		now += 1
		tree.OnServiceStart(w, now)
		waiting.Clear(w)
		nwait--
		grants++
	}
	if grants == 0 {
		t.Fatal("history produced no grants")
	}
}

// TestTreeHopsRootFirst replays random histories through flat, uniform,
// lopsided and RR3-rooted trees.
func TestTreeHopsRootFirst(t *testing.T) {
	specs := map[string]*Spec{
		"flat-RR1":      {Protocol: "RR1", Agents: 16},
		"flat-RR3":      {Protocol: "RR3", Agents: 16},
		"flat-FCFS2":    {Protocol: "FCFS2", Agents: 16},
		"8x4-RR1-FCFS2": mustUniform(t, []int{8, 4}, []string{"RR1", "FCFS2"}),
		"4x4-FCFS1-RR1": mustUniform(t, []int{4, 4}, []string{"FCFS1", "RR1"}),
		"4x2x2-FP-RR1-FCFS1": mustUniform(t, []int{4, 2, 2},
			[]string{"FP", "RR1", "FCFS1"}),
		"root-RR3": {Protocol: "RR3", Children: []Spec{
			{Protocol: "RR1", Agents: 3}, {Protocol: "FCFS2", Agents: 5},
			{Protocol: "FP", Agents: 8}}},
		"lopsided": {Protocol: "FCFS2", Children: []Spec{
			{Protocol: "RR1", Agents: 1},
			{Protocol: "FCFS1", Children: []Spec{
				{Protocol: "RR1", Agents: 7}, {Protocol: "FP", Agents: 2}}}}},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				drive(t, spec, seed, 3000)
			}
		})
	}
}

// TestDepth1DelegatesExactly pins the refactor's safety net at the
// protocol level: a single-leaf tree must produce the same winner
// sequence as a bare protocol instance under identical histories
// (bussim's equivalence test extends this to whole-run bit-identity).
func TestDepth1DelegatesExactly(t *testing.T) {
	for _, proto := range []string{"FP", "RR1", "RR2", "RR3", "FCFS1", "FCFS2"} {
		t.Run(proto, func(t *testing.T) {
			const n = 12
			tree, err := NewTree(&Spec{Protocol: proto, Agents: n})
			if err != nil {
				t.Fatalf("NewTree: %v", err)
			}
			if tree.Name() != proto {
				t.Fatalf("Name = %q, want %q", tree.Name(), proto)
			}
			factory, err := core.ByName(proto)
			if err != nil {
				t.Fatal(err)
			}
			flat := factory(n)
			src := rng.New(7)
			waiting := bitarb.NewVec(n)
			now := 0.0
			for step := 0; step < 2000; step++ {
				now += 1
				if !waiting.Any() || (waiting.Count() < n && src.Float64() < 0.55) {
					g := 1 + src.Intn(n)
					for waiting.Test(g) {
						g = 1 + src.Intn(n)
					}
					waiting.Set(g)
					tree.OnRequest(g, now)
					flat.OnRequest(g, now)
					continue
				}
				to := tree.Arbitrate(waiting)
				fo := flat.Arbitrate(waiting)
				if to != fo {
					t.Fatalf("step %d: tree %+v, flat %+v", step, to, fo)
				}
				if to.Repass {
					continue
				}
				now += 1
				tree.OnServiceStart(to.Winner, now)
				flat.OnServiceStart(to.Winner, now)
				waiting.Clear(to.Winner)
			}
		})
	}
}

// TestTreeRepasses pins the repass rule: an RR3 empty pass at any
// level aborts the settle and the caller re-arbitrates the whole tree,
// so the root's register moves on each pass.
func TestTreeRepasses(t *testing.T) {
	tree, err := NewTree(mustUniform(t, []int{2, 2}, []string{"RR3", "RR1"}))
	if err != nil {
		t.Fatal(err)
	}
	waiting := bitarb.NewVec(4)
	for _, g := range []int{1, 3} {
		waiting.Set(g)
		tree.OnRequest(g, 1)
	}
	// Pass 1: the RR1 root (register 0) picks cluster 2, whose fresh
	// RR3 leaf makes an empty pass. Pass 2: the root, now holding 2,
	// picks cluster 1, whose leaf makes its own empty pass. Pass 3:
	// the root wraps back to cluster 2, whose leaf now grants agent 3.
	for pass := 1; pass <= 2; pass++ {
		if out := tree.Arbitrate(waiting); !out.Repass {
			t.Fatalf("pass %d = %+v, want a repass", pass, out)
		}
	}
	if out := tree.Arbitrate(waiting); out.Repass || out.Winner != 3 {
		t.Fatalf("pass 3 = %+v, want agent 3", out)
	}
}

// TestTreeResetRestoresInitialState holds Tree.Reset to the promise
// the exhaustive verifier replays on: after a random history that stops
// with agents waiting, a reset tree and a fresh one encode the same
// state, and a second history gets the same outcomes, repasses
// included, the same hops and the same encoding from both.
func TestTreeResetRestoresInitialState(t *testing.T) {
	spec := &Spec{Protocol: "FCFS2", Children: []Spec{
		{Protocol: "RR3", Agents: 3},
		{Protocol: "RR1", Children: []Spec{{Protocol: "Hybrid", Agents: 2}, {Protocol: "FCFS1", Agents: 2}}}}}
	used, err := NewTree(spec)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewTree(spec)
	if err != nil {
		t.Fatal(err)
	}
	n := used.N()
	src := rng.New(1988)
	waiting := bitarb.NewVec(n)
	// step requests for a free agent or grants, at time now, on every
	// tree given, and returns the outcomes of the grant's passes.
	step := func(now float64, trees ...*Tree) []core.Outcome {
		if !waiting.Any() || (waiting.Count() < n && src.Float64() < 0.6) {
			g := 1 + src.Intn(n)
			for waiting.Test(g) {
				g = 1 + src.Intn(n)
			}
			waiting.Set(g)
			for _, tree := range trees {
				tree.OnRequest(g, now)
			}
			return nil
		}
		outs := make([][]core.Outcome, len(trees))
		for i, tree := range trees {
			for {
				out := tree.Arbitrate(waiting)
				outs[i] = append(outs[i], out)
				if !out.Repass {
					tree.OnServiceStart(out.Winner, now)
					break
				}
			}
		}
		for _, o := range outs[1:] {
			if !slices.Equal(o, outs[0]) {
				t.Fatalf("at %v: reset tree %v, fresh %v", now, outs[0], o)
			}
		}
		waiting.Clear(outs[0][len(outs[0])-1].Winner)
		return outs[0]
	}
	for now := 1.0; now <= 300 || !waiting.Any(); now++ {
		step(now, used)
	}
	used.Reset()
	waiting.Reset()
	if got, want := used.AppendState(nil), fresh.AppendState(nil); !slices.Equal(got, want) {
		t.Fatalf("after Reset: state %v, fresh %v", got, want)
	}
	for now := 1.0; now <= 300; now++ {
		if outs := step(now, used, fresh); outs != nil && !slices.Equal(used.LastHops(), fresh.LastHops()) {
			t.Fatalf("at %v: reset tree hops %v, fresh %v", now, used.LastHops(), fresh.LastHops())
		}
		if got, want := used.AppendState(nil), fresh.AppendState(nil); !slices.Equal(got, want) {
			t.Fatalf("at %v: reset tree state %v, fresh %v", now, got, want)
		}
	}
}

// TestTreeAllocFree pins the acceptance criterion: steady-state
// operation of a 1024-agent tree allocates nothing.
func TestTreeAllocFree(t *testing.T) {
	spec := mustUniform(t, []int{32, 32}, []string{"RR1", "FCFS2"})
	tree, err := NewTree(spec)
	if err != nil {
		t.Fatal(err)
	}
	n := spec.TotalAgents()
	waiting := bitarb.NewVec(n)
	now := 0.0
	cycle := func() {
		for g := 1; g <= n; g += 7 {
			now += 1
			tree.OnRequest(g, now)
			waiting.Set(g)
		}
		for waiting.Any() {
			out := tree.Arbitrate(waiting)
			if out.Repass || !waiting.Test(out.Winner) {
				t.Fatalf("bad outcome %+v", out)
			}
			now += 1
			tree.OnServiceStart(out.Winner, now)
			waiting.Clear(out.Winner)
		}
	}
	cycle() // warm scratch buffers
	if allocs := testing.AllocsPerRun(10, cycle); allocs > 0 {
		t.Errorf("steady-state tree cycle allocates %v per run, want 0", allocs)
	}
}
