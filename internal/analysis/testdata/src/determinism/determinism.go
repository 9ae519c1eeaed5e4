// Package determinism is golden testdata for the determinism analyzer:
// each want comment pins one diagnostic, and the arblint:allow lines
// pin the escape-hatch semantics.
package determinism

import (
	"math/rand"
	"slices"
	"sort"
	"time"
)

// clock is the canonical violation: wall-clock reads.
func clock() time.Time {
	return time.Now() // want `time.Now makes output depend on wall-clock time`
}

// roll draws from the process-global source.
func roll() int {
	return rand.Intn(6) // want `math/rand.Intn draws from the process-global random source`
}

// shuffle covers a global draw with pointer-free arguments.
func shuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `math/rand.Shuffle`
}

// seeded constructs a local generator: that is seedsrc's concern, not
// determinism's, so no diagnostic here (the generator's draws are
// deterministic for a fixed seed).
func seeded() int {
	r := rand.New(rand.NewSource(42))
	return r.Intn(6)
}

// allowedClock demonstrates the trailing escape hatch: the diagnostic
// on this line is suppressed and the allow comment is consumed.
func allowedClock() time.Time {
	return time.Now() //arblint:allow determinism
}

// allowedAbove demonstrates the preceding-line escape hatch.
func allowedAbove() time.Time {
	//arblint:allow determinism
	return time.Now()
}

// sortedIteration is the recognized deterministic idiom: collect the
// keys, sort, then index.
func sortedIteration(m map[int]string) []string {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// collectUnsorted has the collect-keys shape but returns the keys in
// map order: without a sort in the same function the loop is as
// nondeterministic as the map.
func collectUnsorted(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m { // want `range over map has nondeterministic iteration order`
		out = append(out, k)
	}
	return out
}

// collectSortedBySlices is the collect-keys idiom sorted through the
// slices package.
func collectSortedBySlices(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// unsortedIteration consumes map values in iteration order.
func unsortedIteration(m map[int]string) string {
	s := ""
	for _, v := range m { // want `range over map has nondeterministic iteration order`
		s += v
	}
	return s
}

// twoOnOneLine shows an allow comment suppressing exactly one
// diagnostic: the first time.Now is excused, the second still reports.
func twoOnOneLine() (time.Time, time.Time) {
	a, b := time.Now(), time.Now() //arblint:allow determinism // want `time.Now`
	return a, b
}

// An allow comment that excuses nothing is itself a finding.
//
//arblint:allow determinism // want `unused //arblint:allow determinism comment`
func nothingToAllow() int {
	return 1
}
