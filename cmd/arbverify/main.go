// Command arbverify exhaustively explores a protocol's state space for
// a small agent count and proves (or refutes) its starvation bound: the
// maximum number of grants a continuously waiting agent can be bypassed
// by. Passing means no interleaving of grants and requests, each
// request of one class and at its own instant, exceeds the bound.
// Every registered protocol explores; the bound defaults to the
// protocol's own (verify.Bound).
//
// With -cross, it instead cross-validates the protocol's line-level
// (wired-OR hardware) model against the abstract implementation:
// both are driven through identical random request histories and must
// produce identical grant sequences.
//
// Examples:
//
//	arbverify -protocol RR1 -n 5
//	arbverify -protocol Ticket -n 4
//	arbverify -protocol AAP1 -n 4 -bound 6
//	arbverify -protocol FP -n 3               # expected to fail: starvation
//	arbverify -protocol RR2 -n 6 -cross       # line-level vs abstract
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"busarb/internal/core"
	"busarb/internal/cyclesim"
	"busarb/internal/verify"
)

func main() {
	var (
		protoName = flag.String("protocol", "RR1", "protocol: "+strings.Join(core.Names(), ", "))
		n         = flag.Int("n", 4, "number of agents (keep small: state spaces grow fast)")
		bound     = flag.Int("bound", 0, "bypass bound to verify (0 = the protocol's own bound)")
		maxStates = flag.Int("maxstates", 5_000_000, "state cap")
		cross     = flag.Bool("cross", false, "cross-validate the line-level model against the abstract protocol instead of exploring the state space")
		trials    = flag.Int("trials", 50, "random histories per cross-validation (-cross)")
		ticks     = flag.Int("ticks", 400, "ticks per cross-validation history (-cross)")
		seed      = flag.Uint64("seed", 1234, "random seed for -cross histories")
	)
	flag.Parse()

	if *n < 2 {
		fmt.Fprintf(os.Stderr, "arbverify: need at least 2 agents, got %d\n", *n)
		os.Exit(1)
	}
	if *bound < 0 {
		fmt.Fprintf(os.Stderr, "arbverify: -bound must not be negative, got %d\n", *bound)
		os.Exit(1)
	}
	if *cross {
		runCross(*protoName, *n, *trials, *ticks, *seed)
		return
	}
	factory, err := core.ByName(*protoName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbverify:", err)
		os.Exit(1)
	}
	sys := verify.System{Proto: factory(*n), MaxBypass: *bound}
	if *bound == 0 {
		sys.MaxBypass, _ = verify.Bound(*protoName, *n)
	}

	fmt.Printf("exploring %s with %d agents, bypass bound %d...\n", *protoName, *n, sys.MaxBypass)
	res := verify.Explore(sys, *maxStates)
	switch {
	case res.Violation != nil:
		fmt.Printf("VIOLATION: agent %d bypassed %d times\n", res.Violation.Agent, res.Violation.Bypass)
		fmt.Printf("counterexample (r=request, g=grant): %s\n", res.Violation.Path)
		os.Exit(1)
	case !res.Exhausted:
		fmt.Printf("INCONCLUSIVE: state cap %d reached after %d states\n", *maxStates, res.States)
		os.Exit(1)
	default:
		fmt.Printf("PROVED over %d reachable states; worst observed bypass: %d\n",
			res.States, res.MaxBypass)
	}
}

// runCross drives the line-level and abstract models of one protocol
// through identical request histories and reports the comparison.
func runCross(name string, n, trials, ticks int, seed uint64) {
	kind, err := cyclesim.KindByName(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbverify:", err)
		os.Exit(1)
	}
	factory, err := core.ByName(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbverify:", err)
		os.Exit(1)
	}
	fmt.Printf("cross-validating %s: line-level vs abstract, %d agents, %d histories x %d ticks...\n",
		name, n, trials, ticks)
	if err := cyclesim.CrossCheck(kind, factory, n, trials, ticks, seed); err != nil {
		fmt.Fprintln(os.Stderr, "MISMATCH:", err)
		os.Exit(1)
	}
	fmt.Println("MATCHED: identical grant sequences on every history")
}
