//go:build race

package snoop

// raceEnabled reports whether the suite runs under the race detector,
// whose runtime perturbs allocation counts by a few mallocs per run —
// exact AllocsPerRun pins are only meaningful without it.
const raceEnabled = true
