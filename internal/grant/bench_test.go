package grant

import (
	"fmt"
	"testing"
)

// BenchmarkGrantResolve measures one saturated grant through a Bus —
// Resolve plus the winner's re-assert, the per-grant cost of an arbd
// shard's bus cycle — for each protocol. The path is alloc-guarded
// (TestSteadyStateAllocs pins 0, allocfree proves it); ReportAllocs
// keeps the trajectory honest in BENCH_*.json.
func BenchmarkGrantResolve(b *testing.B) {
	for _, name := range []string{"FCFS1", "FCFS2", "FP", "RR1", "RR3"} {
		for _, n := range []int{8, 32, 64, 1024, 4096} {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				bus := newBus(b, name, n)
				saturate(bus)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w, _ := bus.Resolve()
					bus.Assert(w) // closed loop: the winner re-requests
				}
			})
		}
	}
}
