// Design-space exploration: the use case the paper's conclusion calls
// out — once a model is built from a small number of simulations, it can
// stand in for the simulator in a search for optimal design points.
//
// This example builds a model for a benchmark, then runs the library's
// model-guided search (predperf.Minimize): the model scores a large grid
// of candidates under a hardware-budget constraint, and the shortlist of
// best-predicted configurations is verified with real simulation — a
// pure arg-min over model predictions would exploit model error at the
// corners of the space.
package main

import (
	"context"
	"fmt"
	"log"

	"predperf"
)

// budget is a toy cost model: bigger queues and caches cost more, and so
// do shallower pipelines and faster arrays.
func budget(c predperf.Config) float64 {
	cost := float64(c.ROBSize)/128 + float64(c.IQSize+c.LSQSize)/128
	cost += float64(c.L2SizeKB) / 8192 * 2
	cost += float64(c.IL1SizeKB+c.DL1SizeKB) / 128
	cost += float64(24-c.PipeDepth) / 17
	cost += float64(20-c.L2Lat) / 15
	cost += float64(4-c.DL1Lat) / 3
	return cost
}

func main() {
	log.SetFlags(0)
	const bench = "twolf"
	const maxBudget = 3.5

	ev, err := predperf.NewSimEvaluator(bench, 60_000)
	if err != nil {
		log.Fatal(err)
	}
	model, err := predperf.BuildModel(ev, 90, predperf.Options{})
	if err != nil {
		log.Fatal(err)
	}
	simsUsed := ev.Simulations()
	fmt.Printf("model for %s built from %d simulations\n", bench, simsUsed)

	res, err := predperf.Minimize(context.Background(), model, ev, predperf.SearchOptions{
		GridLevels: 5,
		Shortlist:  8,
		Constraint: func(c predperf.Config) bool { return budget(c) <= maxBudget },
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scored %d in-budget configurations with the model, simulated %d\n\n",
		res.Evaluated, res.Verified)
	fmt.Println("shortlist (best simulated first):")
	for _, c := range res.Shortlist {
		fmt.Printf("  predicted %.3f  simulated %.3f  %v\n", c.Predicted, c.Actual, c.Config)
	}
	fmt.Printf("\nselected design point: %v\n", res.Best)
	fmt.Printf("  simulated CPI %.3f at budget %.2f/%.2f\n", res.BestValue, budget(res.Best), maxBudget)
	fmt.Printf("  total simulations: %d model-building + %d verification\n",
		simsUsed, res.Verified)
}
