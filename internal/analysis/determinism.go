package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// simPackagePaths are the packages whose runs must be bit-identical for
// a fixed seed: every number in EXPERIMENTS.md comes out of them. The
// determinism and nilprobe analyzers bind only here (plus cmd/ for
// determinism: the CLIs stamp and steer reproductions).
var simPackagePaths = []string{
	"internal/sim",
	"internal/bussim",
	"internal/cyclesim",
	"internal/mp",
	"internal/snoop",
	"internal/membus",
	"internal/contention",
	"internal/core",
	"internal/wiredor",
	// The bit-parallel arbitration kernel every hot path resolves
	// through: a nondeterminism here would skew every protocol at once.
	"internal/bitarb",
	// The §4.1 bus controller drives the protocols for every simulator
	// and for arbd: its request-line bookkeeping must stay as
	// deterministic as the protocols it calls. (The daemon,
	// internal/arbd, is deliberately absent: its shard loops are
	// wall-clock by design — tickers, lease TTLs, client deadlines.)
	"internal/busctl",
	// The arbitration-tree layer composes core protocols into
	// hierarchies that both the simulators and arbd run, so it inherits
	// core's discipline.
	"internal/topo",
	// The binary wire codec: pure byte-shuffling on the daemon's hot
	// path, so it must stay clock-free and allocation-free like the
	// kernels. (Its parent internal/arbd stays excluded; the suffix
	// match binds the codec package alone.)
	"internal/arbd/codec",
	// The cluster layer's ring must place resources identically on
	// every node with no coordination — nondeterministic placement is
	// split-brain. The wall-clock forward-latency metric carries the
	// package's //arblint:allow determinism comment.
	"internal/arbd/cluster",
	// The calling side's connection, under the client and the cluster
	// forwarder alike: it matches replies by correlation ID, never by
	// clock or chance. The order-insensitive failing of a torn
	// connection's calls carries its //arblint:allow determinism
	// comment.
	"internal/arbd/mux",
}

func isSimPackage(path string) bool {
	for _, s := range simPackagePaths {
		if pathHasSuffix(path, s) {
			return true
		}
	}
	return false
}

// randConstructors are math/rand top-level functions that build a
// generator rather than draw from the process-global source. They are
// SeedSrc's concern (randomness must come from busarb/internal/rng), so
// Determinism leaves them alone instead of double-reporting.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// Determinism flags the three ways a simulator package silently loses
// run-to-run reproducibility:
//
//   - time.Now: wall-clock reads make output depend on when, not what,
//     was simulated.
//   - math/rand top-level functions (Intn, Float64, Shuffle, ...): they
//     draw from the process-global source, whose state depends on every
//     other draw in the process and on Go's generator version.
//   - range over a map: iteration order is randomized per run. The
//     collect-keys idiom — a loop body that only appends to a slice,
//     which the same function then sorts with a sort.* or
//     slices.Sort* call — is recognized and allowed; anything else
//     must sort first or carry an //arblint:allow determinism comment.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "flag time.Now, global math/rand draws, and unsorted map iteration " +
		"in simulator and cmd packages (fixed-seed runs must be bit-identical)",
	AppliesTo: func(path string) bool {
		return isSimPackage(path) || strings.Contains(path, "/cmd/")
	},
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) error {
	for _, f := range pass.Files {
		// decl is the function declaration being walked: a
		// collect-keys loop's sort must follow the loop inside it.
		var decl *ast.FuncDecl
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				decl = n
			case *ast.CallExpr:
				fn := calleeFunc(pass.Info, n)
				if fn == nil {
					return true
				}
				if isPkgFunc(fn, "time", "Now") {
					pass.Reportf(n.Pos(), "time.Now makes output depend on wall-clock time; plumb a deterministic stamp instead")
				}
				if pkg := fn.Pkg(); pkg != nil && (pkg.Path() == "math/rand" || pkg.Path() == "math/rand/v2") {
					if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil && !randConstructors[fn.Name()] {
						pass.Reportf(n.Pos(), "%s.%s draws from the process-global random source; use a seeded busarb/internal/rng.Source", pkg.Path(), fn.Name())
					}
				}
			case *ast.RangeStmt:
				if t := pass.Info.Types[n.X].Type; t != nil {
					if _, ok := t.Underlying().(*types.Map); ok && !collectsThenSorts(pass, n, decl) {
						pass.Reportf(n.Pos(), "range over map has nondeterministic iteration order; collect the keys and sort them first")
					}
				}
			}
			return true
		})
	}
	return nil
}

// collectsThenSorts recognizes the one deterministic use of map
// iteration: a body that is exactly one append onto a slice
// (`keys = append(keys, k)`), followed later in the same function by a
// sort of that slice. A collect loop whose result escapes unsorted
// (returned, ranged over) is as nondeterministic as the map itself.
func collectsThenSorts(pass *Pass, loop *ast.RangeStmt, decl *ast.FuncDecl) bool {
	if len(loop.Body.List) != 1 || decl == nil || decl.Body == nil {
		return false
	}
	assign, ok := loop.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fun.Name != "append" {
		return false
	}
	// The collected slice must be the one assigned to.
	keys := types.ExprString(assign.Lhs[0])
	if types.ExprString(call.Args[0]) != keys {
		return false
	}
	sorted := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && c.Pos() > loop.End() && sortsSlice(pass, c, keys) {
			sorted = true
		}
		return !sorted
	})
	return sorted
}

// sortsSlice reports whether call sorts the slice spelled keys: a
// sort.* function or a slices.Sort* function whose first argument is
// keys itself or a one-argument conversion of it (sort.StringSlice).
func sortsSlice(pass *Pass, call *ast.CallExpr, keys string) bool {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || len(call.Args) == 0 {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
	case "slices":
		if !strings.HasPrefix(fn.Name(), "Sort") {
			return false
		}
	default:
		return false
	}
	arg := ast.Unparen(call.Args[0])
	if conv, ok := arg.(*ast.CallExpr); ok && len(conv.Args) == 1 {
		arg = ast.Unparen(conv.Args[0])
	}
	return types.ExprString(arg) == keys
}
