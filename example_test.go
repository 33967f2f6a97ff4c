package predperf_test

import (
	"context"
	"fmt"

	"predperf"
)

// Example demonstrates the paper's procedure end to end on a tiny
// budget: build a model from simulations at latin-hypercube-selected
// design points, then predict an unexplored configuration.
func Example() {
	ev, err := predperf.NewSimEvaluator("mcf", 10_000)
	if err != nil {
		panic(err)
	}
	model, err := predperf.BuildModel(ev, 20, predperf.Options{LHSCandidates: 8})
	if err != nil {
		panic(err)
	}
	cpi := model.PredictConfig(predperf.Config{
		PipeDepth: 12, ROBSize: 96, IQSize: 48, LSQSize: 48,
		L2SizeKB: 2048, L2Lat: 10, IL1SizeKB: 32, DL1SizeKB: 32, DL1Lat: 2,
	})
	fmt.Println(cpi > 0 && ev.Simulations() == 20)
	// Output: true
}

// ExampleMinimize shows model-guided design-space search with
// simulator verification of the shortlist.
func ExampleMinimize() {
	ev, err := predperf.NewSimEvaluator("twolf", 10_000)
	if err != nil {
		panic(err)
	}
	model, err := predperf.BuildModel(ev, 20, predperf.Options{LHSCandidates: 8})
	if err != nil {
		panic(err)
	}
	res, err := predperf.Minimize(context.Background(), model, ev, predperf.SearchOptions{
		GridLevels: 2,
		Shortlist:  2,
		Constraint: func(c predperf.Config) bool { return c.L2SizeKB <= 4096 },
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Verified, res.Best.L2SizeKB <= 4096)
	// Output: 2 true
}
