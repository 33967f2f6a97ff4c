// Quickstart: build a predictive CPI model for one benchmark with the
// paper's BuildRBFModel procedure, validate it on an independent random
// test set, and use it to predict the performance of a configuration
// that was never simulated during training.
package main

import (
	"context"
	"fmt"
	"log"

	"predperf"
)

func main() {
	log.SetFlags(0)

	// 1. An evaluator: the cycle-level superscalar simulator running the
	//    mcf-like workload. Every Eval is one "detailed simulation".
	ev, err := predperf.NewSimEvaluator("mcf", 60_000)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Build the model from a 60-point latin hypercube sample (the
	//    sample is chosen by the best L2-star discrepancy of 64 draws).
	model, err := predperf.BuildModel(ev, 60, predperf.Options{LHSCandidates: 64})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model built from %d simulations: %d RBF centers (p_min=%d, alpha=%.0f)\n",
		model.SampleSize, model.Fit.NumCenters(), model.Fit.PMin, model.Fit.Alpha)

	// 3. Validate on 30 independently drawn random design points.
	ts, err := predperf.NewTestSet(context.Background(), ev, nil, 30, 42)
	if err != nil {
		log.Fatal(err)
	}
	st := model.Validate(ts)
	fmt.Printf("validation on %d unseen points: mean %.2f%% / max %.2f%% CPI error\n",
		st.N, st.Mean, st.Max)

	// 4. Predict an unexplored configuration, then check it against the
	//    simulator.
	cfg := predperf.Config{
		PipeDepth: 10, ROBSize: 112, IQSize: 56, LSQSize: 56,
		L2SizeKB: 4096, L2Lat: 8, IL1SizeKB: 32, DL1SizeKB: 64, DL1Lat: 2,
	}
	pred := model.PredictConfig(cfg)
	res, err := predperf.Simulate(cfg, "mcf", 60_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconfig: %v\n", cfg)
	fmt.Printf("  model predicts CPI %.3f, simulator measures %.3f\n", pred, res.CPI())
	fmt.Printf("  total simulations used: %d (vs %d+ for exhaustive search of the space)\n",
		ev.Simulations(), 18*105*6*16*4*4*4)
}
