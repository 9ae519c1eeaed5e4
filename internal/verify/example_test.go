package verify_test

import (
	"fmt"

	"busarb/internal/core"
	"busarb/internal/verify"
)

// Prove, by exhausting the reachable state space, that the paper's RR1
// protocol never bypasses a continuously waiting agent more than N-1
// times on a 4-agent bus — and that fixed priority has no such bound.
func Example() {
	res := verify.Explore(verify.System{Proto: core.NewRR1(4), MaxBypass: 3}, 1_000_000)
	fmt.Printf("RR1: violation=%v states=%d worst=%d\n",
		res.Violation != nil, res.States, res.MaxBypass)

	res = verify.Explore(verify.System{Proto: core.NewFixedPriority(4), MaxBypass: 3}, 1_000_000)
	fmt.Printf("FP: violation=%v (agent %d starved)\n",
		res.Violation != nil, res.Violation.Agent)
	// Output:
	// RR1: violation=false states=496 worst=3
	// FP: violation=true (agent 1 starved)
}
