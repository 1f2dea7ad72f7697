package sim

import (
	"fmt"
	"testing"
)

// TestRunInsideQuantumAllocationFree is the allocation gate for the
// simulator's hot path: once warm, the contended 4-core mix must run
// strictly inside a quantum — core, caches, MSHRs, miss transactions,
// writebacks, prefetches and the DRAM controllers — without allocating,
// on both the skip-ahead and the cycle-by-cycle paths, with and without
// the prefetcher. The quantum is stretched so the gate's runs (plus
// AllocsPerRun's warm-up call) never reach a quantum boundary, whose
// snapshot legitimately allocates.
func TestRunInsideQuantumAllocationFree(t *testing.T) {
	for _, prefetch := range []bool{false, true} {
		for _, disableSkip := range []bool{false, true} {
			t.Run(fmt.Sprintf("prefetch=%v/skipoff=%v", prefetch, disableSkip), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Quantum = 1_000_000
				cfg.Prefetch = prefetch
				cfg.DisableSkipAhead = disableSkip
				sys := benchSystemFrom(t, cfg)
				sys.RunQuanta(1)
				if n := testing.AllocsPerRun(1, func() { sys.Run(50_000) }); n != 0 {
					t.Fatalf("Run(50_000) inside a quantum allocated %v objects", n)
				}
				if sys.Cycle() >= 2*cfg.Quantum {
					t.Fatalf("gate crossed a quantum boundary (cycle %d)", sys.Cycle())
				}
			})
		}
	}
}
