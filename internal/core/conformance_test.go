package core_test

import (
	"testing"

	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/evaltest"
)

// TestSimEvaluatorConformance runs the shared evaluator contract
// against the in-process simulator — the reference implementation the
// cluster's RemoteEvaluator must be bit-compatible with (the same suite
// runs in internal/cluster against a live worker farm).
func TestSimEvaluatorConformance(t *testing.T) {
	evaltest.Run(t, evaltest.Harness{
		New: func(t *testing.T) core.Evaluator {
			ev, err := core.NewSimEvaluator("mcf", 2000)
			if err != nil {
				t.Fatal(err)
			}
			return ev
		},
		Sims: func(ev core.Evaluator) int {
			return ev.(*core.SimEvaluator).Simulations()
		},
	})
}

// TestFuncEvaluatorConformance runs the contract against the function
// adapter the test fixtures and synthetic experiments use.
func TestFuncEvaluatorConformance(t *testing.T) {
	evaltest.Run(t, evaltest.Harness{
		New: func(t *testing.T) core.Evaluator {
			return core.FuncEvaluator(func(c design.Config) float64 {
				return 1 + float64(c.ROBSize)/float64(c.PipeDepth*c.L2Lat) + 1/float64(c.DL1SizeKB)
			})
		},
	})
}
