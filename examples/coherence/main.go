// Coherence: the snooping-coherent multiprocessor. Writes invalidate
// remote copies over the same broadcast bus the arbitration rides on,
// so coherence traffic competes with ordinary misses for bus tenure —
// and the arbitration protocol decides whose invalidations and refills
// go first.
//
// Three sharing intensities are compared: private data (no sharing),
// mostly-read sharing, and write-heavy sharing (lock/counter
// ping-pong), each under round-robin arbitration.
package main

import (
	"fmt"

	"busarb"
	"busarb/internal/mp"
)

func run(name string, writeFrac, hotProb float64) {
	const n = 6
	procs := make([]*busarb.CoherentProc, n)
	for i := range procs {
		procs[i] = &busarb.CoherentProc{
			// The hot region is shared between all processors; the cold
			// region is effectively private (it is vast).
			Pattern: &mp.HotCold{
				HotBytes:  256,
				ColdBytes: 1 << 20,
				HotProb:   hotProb,
				WriteFrac: writeFrac,
			},
			CyclePerRef: 0.2,
		}
	}
	res := busarb.RunCoherent(busarb.CoherentConfig{
		Procs:           procs,
		Protocol:        busarb.MustProtocol("RR1"),
		Seed:            9,
		Horizon:         5000,
		CheckInvariants: true,
	})
	var inval, coh, upg int64
	var refs int64
	for _, p := range procs {
		inval += p.Stats.InvalidationsRecv
		coh += p.Stats.CoherenceMisses
		upg += p.Stats.Upgrades
		refs += p.Stats.Refs
	}
	fmt.Printf("%-18s  %8.2f  %10.4f  %10.4f  %9.4f  %8.2f\n",
		name,
		res.Utilization(),
		float64(inval)/float64(refs),
		float64(coh)/float64(refs),
		float64(upg)/float64(refs),
		float64(refs)/res.Time)
}

func runMESI(exclusive bool) int64 {
	const n = 6
	procs := make([]*busarb.CoherentProc, n)
	for i := range procs {
		// Churning private working sets: blocks are read in clean, then
		// written — the pattern whose upgrades MESI's Exclusive state
		// makes free.
		procs[i] = &busarb.CoherentProc{
			Pattern: &mp.WorkingSet{
				Bytes:     8192,
				Base:      uint64(i) << 24,
				WriteFrac: 0.3,
			},
			CyclePerRef: 0.2,
		}
	}
	res := busarb.RunCoherent(busarb.CoherentConfig{
		Procs:           procs,
		Protocol:        busarb.MustProtocol("RR1"),
		Seed:            9,
		Horizon:         5000,
		CheckInvariants: true,
		Exclusive:       exclusive,
	})
	return res.ByKind[busarb.BusUpgr]
}

func main() {
	fmt.Println("6-processor snooping MSI bus (RR arbitration), per-reference rates:")
	fmt.Println()
	fmt.Printf("%-18s  %8s  %10s  %10s  %9s  %8s\n",
		"workload", "bus util", "inval/ref", "cohmiss/ref", "upgr/ref", "refs/t")
	run("private", 0.3, 0.0)      // no shared region traffic
	run("read-mostly", 0.02, 0.6) // shared reads, rare writes
	run("write-shared", 0.5, 0.6) // contended counters/locks
	fmt.Println(`
Private data costs only capacity misses. Read-mostly sharing is nearly
free: Shared copies coexist. Write-shared data turns the bus into an
invalidation channel — every write kills the other five copies, whose
next access misses again (cohmiss/ref), throttling everyone's progress
(refs/t). The arbitration protocol keeps that pain fairly distributed.`)

	fmt.Println("\nMESI vs MSI: BusUpgr transactions on the mostly-private workload:")
	fmt.Printf("  MSI:  %d upgrades\n", runMESI(false))
	fmt.Printf("  MESI: %d upgrades (Exclusive fills upgrade silently)\n", runMESI(true))
}
