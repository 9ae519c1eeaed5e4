package grant

import (
	"fmt"
	"testing"

	"busarb/internal/core"
)

// BenchmarkGrantResolve measures one saturated grant through the
// controller as the arbd shard drives it — a settle, the winner's
// tenure and its re-assert, the per-grant cost of a shard's bus cycle —
// for every protocol arbd serves. The path is alloc-guarded
// (TestSteadyStateAllocs pins 0, allocfree proves it); ReportAllocs
// keeps the trajectory honest in BENCH_*.json.
func BenchmarkGrantResolve(b *testing.B) {
	for _, name := range core.Names() {
		for _, n := range []int{8, 32, 64, 1024, 4096} {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				bus := newBus(b, name, n)
				saturate(bus)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w, _ := bus.resolve()
					bus.assert(w) // closed loop: the winner re-requests
				}
			})
		}
	}
}
