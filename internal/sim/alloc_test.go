//go:build !race

package sim

import (
	"testing"

	"predperf/internal/trace"
)

// maxAllocsPerInst bounds the heap allocations of one simulation per
// trace instruction. The hot loop allocates nothing per instruction;
// what remains is per run (caches, predictor tables, the ROB) plus the
// growth of the ROB slots' dependent lists, under 0.01 per instruction
// on mcf. A per-instruction allocation anywhere in the loop adds at
// least 1.0.
const maxAllocsPerInst = 0.25

// TestRunAllocsPerInst guards the allocation-free hot loop. It is built
// without the race detector, whose instrumentation allocates on its own.
func TestRunAllocsPerInst(t *testing.T) {
	const n = 40000
	tr, err := trace.Cached("mcf", n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.WarmupInsts = n / 5
	allocs := testing.AllocsPerRun(3, func() { Run(cfg, tr) })
	if per := allocs / n; per > maxAllocsPerInst {
		t.Fatalf("sim.Run allocates %.3f objects per instruction (%.0f per run), want <= %.2f",
			per, allocs, maxAllocsPerInst)
	}
}
